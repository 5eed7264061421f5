package statecodec_test

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"

	"zoomlens/internal/flow"
	"zoomlens/internal/layers"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/zoom"
)

// compareOnly is key with its prefix taken away: the order every encoder
// used before keys had prefixes.
func compareOnly[K any](key *statecodec.Key[K]) *statecodec.Key[K] {
	ref := *key
	ref.Prefix = nil
	return &ref
}

// encodeSet writes set through MapVal and through Keys, as a full pass
// and a delta pass would.
func encodeSet[K comparable](key *statecodec.Key[K], set map[K]struct{}) []byte {
	var w statecodec.Writer
	c := statecodec.NewEncoder(&w, true)
	statecodec.MapVal(c, key, &set, nil)
	keys := make([]K, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	statecodec.Keys(c, key, keys, func(K) {})
	return bytes.Clone(w.Bytes())
}

// TestPutPrefixOrderMatchesCompare: on random key sets whose members
// share long leading runs — IPv4 addresses a last bit apart, IPv6
// addresses alike in all the bits a prefix holds, the same address with
// and without a zone or as IPv4-mapped IPv6, the invalid address, several
// streams per flow — an encoder that sorts by prefix writes exactly the
// bytes a Compare-only sort writes, below and above the encoder's stack
// scratch size.
func TestPutPrefixOrderMatchesCompare(t *testing.T) {
	addrs := []netip.Addr{
		{},
		netip.MustParseAddr("10.8.0.1"),
		netip.MustParseAddr("10.8.0.2"),
		netip.MustParseAddr("10.8.0.3"),
		netip.MustParseAddr("52.81.3.4"),
		netip.MustParseAddr("52.81.3.5"),
		netip.MustParseAddr("::ffff:10.8.0.1"),
		netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("2001:db8::2"),
		netip.MustParseAddr("2001:db8::1%eth0"),
		netip.MustParseAddr("2001:db8::1%eth1"),
		netip.MustParseAddr("2001:db8:0:1::1"), // the leading 62 bits of 2001:db8::1
		netip.MustParseAddr("2001:db8:0:2::1"),
		netip.MustParseAddr("2001:db8:0:3::"),
		netip.MustParseAddr("2001:db8:1::"),
		netip.MustParseAddr("2001:db9::"),
	}
	rng := rand.New(rand.NewSource(7))
	tuple := func() layers.FiveTuple {
		return layers.FiveTuple{
			Src: addrs[rng.Intn(len(addrs))], Dst: addrs[rng.Intn(len(addrs))],
			SrcPort: uint16(8801 + rng.Intn(2)), DstPort: uint16(8801 + rng.Intn(2)),
			Proto: []uint8{layers.ProtoUDP, layers.ProtoTCP}[rng.Intn(2)],
		}
	}
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(40)
		if round%2 == 1 {
			n = 65 + rng.Intn(300)
		}
		tuples := make(map[layers.FiveTuple]struct{})
		ids := make(map[flow.MediaStreamID]struct{})
		for len(ids) < n {
			ft := tuple()
			tuples[ft] = struct{}{}
			key := zoom.StreamKey{SSRC: uint32(rng.Intn(3)), Type: zoom.MediaType(16 + rng.Intn(2)), Proto: uint8(rng.Intn(2))}
			ids[flow.MediaStreamID{Flow: ft, Key: key}] = struct{}{}
		}
		if got, want := encodeSet(layers.TupleKey, tuples), encodeSet(compareOnly(layers.TupleKey), tuples); !bytes.Equal(got, want) {
			t.Fatalf("round %d: %d tuples encode differently by prefix", round, len(tuples))
		}
		if got, want := encodeSet(flow.StreamIDKey, ids), encodeSet(compareOnly(flow.StreamIDKey), ids); !bytes.Equal(got, want) {
			t.Fatalf("round %d: %d stream IDs encode differently by prefix", round, len(ids))
		}
	}
}
