package flow

import (
	"encoding/binary"
	"net/netip"
	"testing"

	"zoomlens/internal/layers"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/zoom"
)

// fuzzAddr reads one address off b: a kind byte (invalid, IPv4, IPv6,
// IPv4-mapped IPv6, zoned IPv6), then as many address bytes as the kind
// takes, short input reading as zeros. It returns the rest of b.
func fuzzAddr(b []byte) (netip.Addr, []byte) {
	take := func(n int) []byte {
		out := make([]byte, n)
		b = b[copy(out, b):]
		return out
	}
	kind := take(1)[0] % 5
	switch kind {
	case 1:
		return netip.AddrFrom4([4]byte(take(4))), b
	case 3:
		return netip.AddrFrom16(netip.AddrFrom4([4]byte(take(4))).As16()), b
	case 2, 4:
		a := netip.AddrFrom16([16]byte(take(16)))
		if kind == 4 {
			a = a.WithZone([]string{"eth0", "eth1", "wlan0"}[take(1)[0]%3])
		}
		return a, b
	}
	return netip.Addr{}, b
}

// fuzzStreamID reads a stream identifier off b (see fuzzAddr).
func fuzzStreamID(b []byte) MediaStreamID {
	var id MediaStreamID
	id.Flow.Src, b = fuzzAddr(b)
	id.Flow.Dst, b = fuzzAddr(b)
	var tail [11]byte
	copy(tail[:], b)
	id.Flow.SrcPort = binary.BigEndian.Uint16(tail[0:])
	id.Flow.DstPort = binary.BigEndian.Uint16(tail[2:])
	id.Flow.Proto = tail[4]
	id.Key = zoom.StreamKey{SSRC: binary.BigEndian.Uint32(tail[5:]), Type: zoom.MediaType(tail[9]), Proto: tail[10]}
	return id
}

// checkPrefixOrder fails unless key's prefix is monotone on a and b:
// Compare(a, b) < 0 implies Prefix(a) <= Prefix(b), and equal keys have
// equal prefixes.
func checkPrefixOrder[K any](t *testing.T, name string, key *statecodec.Key[K], a, b K) {
	t.Helper()
	c, pa, pb := key.Compare(a, b), key.Prefix(a), key.Prefix(b)
	if (c < 0 && pa > pb) || (c > 0 && pa < pb) || (c == 0 && pa != pb) {
		t.Fatalf("%s: Compare(%v, %v) = %d but prefixes %#016x, %#016x", name, a, b, c, pa, pb)
	}
}

// FuzzKeyPrefixOrder holds the checkpoint keys' prefixes to their
// orders: a prefix that disagrees with Compare would write keys out of
// order, which every restore refuses. The first identifier is read from
// x, the second from x's first keep bytes followed by y, so pairs can
// share any length of leading bytes.
func FuzzKeyPrefixOrder(f *testing.F) {
	v4 := func(a, b, c, d byte) []byte { return []byte{1, a, b, c, d} }
	v6 := func(kind, first, last byte) []byte {
		out := append([]byte{kind, 0x20, 0x01, 0x0d, 0xb8}, make([]byte, 10)...)
		return append(out, first, last)
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	ports := []byte{0x80, 0x00, 0x22, 0x61, 17, 0, 0, 0, 7, 16, 0}
	f.Add(cat(v4(10, 8, 0, 1), v4(52, 81, 3, 4), ports), uint8(5), cat(v4(52, 81, 3, 5), ports))
	f.Add(cat(v4(10, 8, 0, 1), v4(52, 81, 3, 4), ports), uint8(15), []byte{0x80, 0x01})
	f.Add(cat(v6(2, 0, 1), v6(2, 0, 2), ports), uint8(17), cat(v6(2, 0, 3), ports))
	f.Add(cat(v6(2, 0, 1), v4(52, 81, 3, 4)), uint8(16), []byte{2})
	f.Add(cat([]byte{3, 10, 0, 0, 1}, v4(10, 0, 0, 1)), uint8(0), cat(v4(10, 0, 0, 1), v4(10, 0, 0, 1)))
	f.Add(cat(v6(4, 1, 1), []byte{0}), uint8(17), []byte{1})
	f.Add([]byte{0, 0}, uint8(1), []byte{1, 255, 255, 255, 255})
	f.Add(cat(v4(10, 8, 0, 1), v6(2, 0xff, 0xff)), uint8(5), v4(255, 255, 255, 255))

	f.Fuzz(func(t *testing.T, x []byte, keep uint8, y []byte) {
		n := min(int(keep), len(x))
		a, b := fuzzStreamID(x), fuzzStreamID(append(x[:n:n], y...))
		for _, pair := range [][2]MediaStreamID{{a, b}, {a, a}, {b, a}} {
			checkPrefixOrder(t, "TupleKey", layers.TupleKey, pair[0].Flow, pair[1].Flow)
			checkPrefixOrder(t, "StreamIDKey", StreamIDKey, pair[0], pair[1])
			checkPrefixOrder(t, "StreamKeyKey", zoom.StreamKeyKey, pair[0].Key, pair[1].Key)
		}
	})
}
