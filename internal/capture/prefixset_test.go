package capture

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"zoomlens/internal/infra"
)

// defaultZoomNetworks is zoomlens.DefaultZoomNetworks() (the facade
// package imports this one): the 117 prefixes a production filter holds.
func defaultZoomNetworks() []netip.Prefix {
	var out []netip.Prefix
	for _, n := range infra.Networks() {
		out = append(out, n.Prefix)
	}
	return out
}

// scanContains is the definition PrefixSet.Contains must equal.
func scanContains(ps []netip.Prefix, a netip.Addr) bool {
	for _, p := range ps {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

func checkSetVsScan(t *testing.T, ps []netip.Prefix, addrs []netip.Addr) {
	t.Helper()
	set := NewPrefixSet(ps)
	if set.Len() != len(ps) {
		t.Fatalf("Len() = %d, built from %d prefixes", set.Len(), len(ps))
	}
	for _, a := range addrs {
		if got, want := set.Contains(a), scanContains(ps, a); got != want {
			t.Fatalf("Contains(%v) = %v, scan over %v says %v", a, got, ps, want)
		}
	}
}

// edgeAddrs returns, for each prefix, its first and last address and the
// addresses one below and one above the range, plus the IPv4-mapped IPv6
// form of each IPv4 one and a zoned copy of each IPv6 one.
func edgeAddrs(ps []netip.Prefix) []netip.Addr {
	var out []netip.Addr
	add := func(a netip.Addr) {
		if !a.IsValid() {
			return
		}
		out = append(out, a)
		if a.Is4() {
			out = append(out, netip.AddrFrom16(a.As16()))
		} else {
			out = append(out, a.WithZone("eth0"))
		}
	}
	for _, p := range ps {
		if !p.IsValid() {
			continue
		}
		first := p.Masked().Addr()
		b := first.AsSlice()
		for i := p.Bits(); i < len(b)*8; i++ {
			b[i/8] |= 0x80 >> (i % 8)
		}
		last, _ := netip.AddrFromSlice(b)
		add(first)
		add(last)
		add(first.Prev())
		add(last.Next())
	}
	return out
}

// slash16Edges returns, for each IPv4 prefix, the first and last address
// of every /16 it touches and the addresses one below and one above
// each — where the /16 index and the range search must agree. A prefix
// touching more than 16 /16s contributes its first and last eight.
func slash16Edges(ps []netip.Prefix) []netip.Addr {
	var out []netip.Addr
	for _, p := range ps {
		if !p.IsValid() || !p.Addr().Is4() {
			continue
		}
		a4 := p.Masked().Addr().As4()
		lo := binary.BigEndian.Uint32(a4[:]) >> 16
		hi := lo | (1<<16-1)>>min(p.Bits(), 16)
		for b := lo; b <= hi; b++ {
			if hi-lo >= 16 && b == lo+8 {
				b = hi - 7
			}
			first := netip.AddrFrom4([4]byte{byte(b >> 8), byte(b), 0, 0})
			last := netip.AddrFrom4([4]byte{byte(b >> 8), byte(b), 255, 255})
			out = append(out, first, last)
			if p := first.Prev(); p.IsValid() {
				out = append(out, p)
			}
			if n := last.Next(); n.IsValid() {
				out = append(out, n)
			}
		}
	}
	return out
}

// indexEdgeLists are the lists that put the /16 index at its edges:
// ranges that start or end inside a /16, one range spanning many /16s
// (it merges from prefixes of seven lengths and starts and ends mid-/16),
// and the two ends of the address space.
func indexEdgeLists() map[string][]netip.Prefix {
	pfx := netip.MustParsePrefix
	return map[string][]netip.Prefix{
		"mid16":  {pfx("10.8.128.0/17"), pfx("10.9.0.0/18"), pfx("10.9.200.0/21"), pfx("10.11.255.255/32")},
		"span16": {pfx("10.8.128.0/17"), pfx("10.9.0.0/16"), pfx("10.10.0.0/15"), pfx("10.12.0.0/14"), pfx("10.16.0.0/12"), pfx("10.32.0.0/13"), pfx("10.40.0.0/17")},
		"all4":   {pfx("0.0.0.0/0")},
		"top":    {pfx("255.255.255.255/32")},
		"bottom": {pfx("0.0.0.0/32"), pfx("0.1.0.0/31")},
	}
}

func TestPrefixSetMatchesScan(t *testing.T) {
	pfx := netip.MustParsePrefix
	lists := map[string][]netip.Prefix{
		"empty":       nil,
		"default":     defaultZoomNetworks(),
		"scattered":   scatteredNetworks(),
		"everything4": {pfx("0.0.0.0/0")},
		"everything6": {pfx("::/0")},
		"hosts":       {pfx("192.0.2.1/32"), pfx("192.0.2.2/32"), pfx("192.0.2.4/32"), pfx("2001:db8::1/128")},
		"edges":       {pfx("0.0.0.0/8"), pfx("255.255.255.255/32"), pfx("255.0.0.0/8"), pfx("0.0.0.0/32")},
		"nested":      {pfx("10.0.0.0/8"), pfx("10.8.0.0/16"), pfx("10.8.1.0/24"), pfx("10.0.0.0/8")},
		"adjacent":    {pfx("10.8.1.0/24"), pfx("10.8.0.0/24"), pfx("10.8.2.0/23"), pfx("10.8.5.0/24")},
		"unmasked":    {netip.PrefixFrom(netip.MustParseAddr("10.8.77.9"), 16), netip.PrefixFrom(netip.MustParseAddr("2001:db8::9"), 32)},
		"invalid":     {{}, netip.PrefixFrom(netip.MustParseAddr("10.0.0.1"), 33), pfx("172.16.0.0/12"), netip.PrefixFrom(netip.Addr{}, 8)},
		"mapped":      {pfx("::ffff:10.8.0.0/112"), pfx("10.9.0.0/16")},
		"mixed":       {pfx("2001:db8::/32"), pfx("52.81.0.0/16"), pfx("fd00::/8"), pfx("149.137.0.0/17")},
	}
	for name, ps := range indexEdgeLists() {
		lists["index/"+name] = ps
	}
	extra := []netip.Addr{
		{}, netip.MustParseAddr("0.0.0.0"), netip.MustParseAddr("255.255.255.255"),
		netip.MustParseAddr("::"), netip.MustParseAddr("::1"), netip.MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
		netip.MustParseAddr("10.8.1.2"), netip.MustParseAddr("::ffff:10.8.1.2"), netip.MustParseAddr("::ffff:10.9.1.2"),
		netip.MustParseAddr("fe80::1%eth0"), netip.MustParseAddr("2001:db8::1%eth0"),
	}
	for name, ps := range lists {
		t.Run(name, func(t *testing.T) {
			addrs := append(edgeAddrs(ps), extra...)
			for _, other := range lists {
				addrs = append(addrs, edgeAddrs(other)...)
				addrs = append(addrs, slash16Edges(other)...)
			}
			checkSetVsScan(t, ps, addrs)
		})
	}
}

// scatteredNetworks is a list of the production size in which nothing
// merges: 117 /24s, every other one of a /16.
func scatteredNetworks() []netip.Prefix {
	var out []netip.Prefix
	for i := 0; i < 117; i++ {
		out = append(out, netip.PrefixFrom(netip.AddrFrom4([4]byte{52, 81, byte(2 * i), 0}), 24))
	}
	return out
}

// TestPrefixSetMerges pins the construction: adjacent and overlapping
// prefixes become one range (the modelled Zoom inventory is contiguous,
// so all 117 do), separated ones stay apart, and the result is sorted
// and disjoint.
func TestPrefixSetMerges(t *testing.T) {
	for _, tc := range []struct {
		name string
		ps   []netip.Prefix
		want int
	}{
		{"default", defaultZoomNetworks(), 1},
		{"scattered", scatteredNetworks(), 117},
		{"nested+adjacent", []netip.Prefix{
			netip.MustParsePrefix("10.8.1.0/24"), netip.MustParsePrefix("10.8.0.0/24"),
			netip.MustParsePrefix("10.8.0.0/23"), netip.MustParsePrefix("10.8.3.0/24"),
		}, 2},
	} {
		set := NewPrefixSet(tc.ps)
		if len(set.v4) != tc.want || len(set.v6) != 0 {
			t.Errorf("%s: %d prefixes → %d IPv4 ranges (want %d), %d IPv6 prefixes", tc.name, len(tc.ps), len(set.v4), tc.want, len(set.v6))
		}
		for i := 1; i < len(set.v4); i++ {
			if uint64(set.v4[i].lo) <= uint64(set.v4[i-1].hi)+1 {
				t.Errorf("%s: ranges %d and %d overlap or touch: %+v", tc.name, i-1, i, set.v4[i-1:i+1])
			}
		}
	}
}

// FuzzPrefixSetVsScan is the differential the prefix set lives under:
// for an arbitrary prefix list and arbitrary addresses, Contains must
// equal netip.Prefix.Contains tried over the list. The input is read as
// 18-byte records — a kind byte, a length byte and 16 address bytes —
// the first of which are prefixes (IPv4, IPv6 or IPv4-mapped, masked or
// not, any length including out-of-range ones, which makes them
// invalid) and the rest addresses (IPv4, IPv6, IPv4-mapped, zoned).
func FuzzPrefixSetVsScan(f *testing.F) {
	const recLen = 18
	rec := func(kind, bits byte, a netip.Addr) []byte {
		a16 := a.As16()
		if a.Is4() {
			a4 := a.As4()
			a16 = [16]byte{}
			copy(a16[:], a4[:])
		}
		return append([]byte{kind, bits}, a16[:]...)
	}
	const (
		kind4 = iota
		kind6
		kindMapped
		kindZoned
		kinds
	)
	addrOf := func(r []byte) netip.Addr {
		switch r[0] % kinds {
		case kind4:
			return netip.AddrFrom4([4]byte(r[2:6]))
		case kindMapped:
			return netip.AddrFrom16(netip.AddrFrom4([4]byte(r[2:6])).As16())
		case kindZoned:
			return netip.AddrFrom16([16]byte(r[2:18])).WithZone("z")
		}
		return netip.AddrFrom16([16]byte(r[2:18]))
	}
	seed := func(ps []netip.Prefix, addrs []netip.Addr) {
		in := []byte{byte(len(ps))}
		for _, p := range ps {
			kind := byte(kind6)
			if p.Addr().Is4() {
				kind = kind4
			}
			in = append(in, rec(kind, byte(p.Bits()), p.Addr())...)
		}
		for _, a := range addrs {
			kind := byte(kind6)
			if a.Is4() {
				kind = kind4
			}
			in = append(in, rec(kind, 0, a)...)
		}
		f.Add(in)
	}
	def := defaultZoomNetworks()
	seed(def, edgeAddrs(def))
	pfx := netip.MustParsePrefix
	for _, ps := range [][]netip.Prefix{
		{pfx("0.0.0.0/0")}, {pfx("::/0"), pfx("10.0.0.0/8")},
		{pfx("10.8.1.0/24"), pfx("10.8.0.0/24"), pfx("10.8.0.0/16"), pfx("10.8.2.0/23"), pfx("10.8.1.0/24")},
		{pfx("192.0.2.1/32"), pfx("2001:db8::1/128"), pfx("255.255.255.255/32")},
	} {
		seed(ps, edgeAddrs(ps))
	}
	for _, ps := range indexEdgeLists() {
		seed(ps, append(edgeAddrs(ps), slash16Edges(ps)...))
	}
	// Hand-built records for what seed cannot express: invalid lengths,
	// unmasked and IPv4-mapped prefixes, mapped and zoned addresses.
	f.Add(slices.Concat([]byte{3},
		rec(kind4, 40, netip.MustParseAddr("10.0.0.1")),
		rec(kind4, 12, netip.MustParseAddr("10.99.7.7")),
		rec(kindMapped, 112, netip.MustParseAddr("10.8.0.0")),
		rec(kindMapped, 0, netip.MustParseAddr("10.8.1.2")),
		rec(kindZoned, 0, netip.MustParseAddr("2001:db8::1"))))

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		n, in := int(in[0]), in[1:]
		var ps []netip.Prefix
		for ; n > 0 && len(in) >= recLen; n, in = n-1, in[recLen:] {
			// PrefixFrom keeps the address unmasked and turns an
			// out-of-range length into an invalid prefix.
			ps = append(ps, netip.PrefixFrom(addrOf(in).WithZone(""), int(int8(in[1]))))
		}
		var addrs []netip.Addr
		for ; len(in) >= recLen; in = in[recLen:] {
			a := addrOf(in)
			addrs = append(addrs, a)
			// And its neighbours, so range ends are probed from both sides.
			addrs = append(addrs, a.Prev(), a.Next())
		}
		checkSetVsScan(t, ps, append(addrs, edgeAddrs(ps)...))
	})
}

// tapMixLen is the length of tapMix's stream, a power of two so that the
// benchmark's index into it is a mask, not a division.
const tapMixLen = 4096

// tapMix is a seeded stream of tapMixLen IPv4 addresses shaped like a
// border tap's (bench/'s tap_background): ~98 % drawn from the campus
// /16 and the three outside networks its background frames travel
// between, the rest from inside ps.
func tapMix(ps []netip.Prefix) []netip.Addr {
	rng := rand.New(rand.NewSource(1))
	pfx := netip.MustParsePrefix
	background := []netip.Prefix{pfx("10.8.0.0/16"), pfx("93.184.0.0/16"), pfx("151.101.0.0/16"), pfx("142.250.0.0/15")}
	in := func(p netip.Prefix) netip.Addr {
		a4 := p.Masked().Addr().As4()
		v := binary.BigEndian.Uint32(a4[:]) | rng.Uint32()>>p.Bits()
		return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	}
	out := make([]netip.Addr, tapMixLen)
	for i := range out {
		if rng.Intn(50) == 0 {
			out[i] = in(ps[rng.Intn(len(ps))])
		} else {
			out[i] = in(background[rng.Intn(len(background))])
		}
	}
	return out
}

var containsSink int

// BenchmarkPrefixSetContains measures one membership test at production
// list size against the scan it replaced, for an address the set rejects
// (the border-tap case) and one it accepts: on the modelled Zoom
// networks, which merge into one range, and on a scattered list of the
// same length, which does not merge at all and is probed in one of its
// gaps, the full depth of the search. Those rows repeat one address,
// which trains the branch predictor; the tap-mix row walks tapMix's
// stream instead, whose rejects land above and below the ranges at
// random, as a tap's do.
func BenchmarkPrefixSetContains(b *testing.B) {
	for _, list := range []struct {
		name   string
		ps     []netip.Prefix
		reject string
	}{
		{"default", defaultZoomNetworks(), "93.184.216.34"},
		{"scattered", scatteredNetworks(), "52.81.101.7"},
	} {
		set := NewPrefixSet(list.ps)
		for _, tc := range []struct {
			name string
			addr netip.Addr
			want bool
		}{
			{"reject", netip.MustParseAddr(list.reject), false},
			{"accept", list.ps[len(list.ps)-1].Addr(), true},
		} {
			b.Run(list.name+"/"+tc.name+"/set", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if set.Contains(tc.addr) != tc.want {
						b.Fatal("wrong answer")
					}
				}
			})
			b.Run(list.name+"/"+tc.name+"/scan", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if scanContains(list.ps, tc.addr) != tc.want {
						b.Fatal("wrong answer")
					}
				}
			})
		}
		b.Run(list.name+"/tap-mix/set", func(b *testing.B) {
			mix := tapMix(list.ps)
			for _, a := range mix {
				if set.Contains(a) != scanContains(list.ps, a) {
					b.Fatalf("Contains(%v) disagrees with the scan", a)
				}
			}
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				if set.Contains(mix[i%tapMixLen]) {
					hits++
				}
			}
			containsSink = hits
		})
	}
}
