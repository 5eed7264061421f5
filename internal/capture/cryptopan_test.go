package capture

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

// commonPrefixLen returns the length of the longest common bit prefix of
// two IPv4 addresses: the quantity prefix preservation keeps.
func commonPrefixLen(x, y netip.Addr) int {
	a, b := x.As4(), y.As4()
	return bits.LeadingZeros32(binary.BigEndian.Uint32(a[:]) ^ binary.BigEndian.Uint32(b[:]))
}

func TestPrefixPreservation(t *testing.T) {
	an := NewPrefixPreservingAnonymizer([]byte("secret"))
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		// Two addresses sharing a random-length prefix.
		k := rng.Intn(33)
		base := rng.Uint32()
		var mask uint32
		if k > 0 {
			mask = ^uint32(0) << (32 - k)
		}
		x := base
		y := (base & mask) | (rng.Uint32() &^ mask)
		// Force a differing bit right after the shared prefix when k<32.
		if k < 32 {
			y = (y &^ (1 << (31 - k))) | ((^x) & (1 << (31 - k)))
		}
		ax := an.Addr(u32addr(x))
		ay := an.Addr(u32addr(y))
		wantShared := commonPrefixLen(u32addr(x), u32addr(y))
		got := commonPrefixLen(ax, ay)
		if got != wantShared {
			t.Fatalf("trial %d: original share %d bits, anonymized share %d", trial, wantShared, got)
		}
	}
}

func TestPrefixPreservingDeterministicPerKey(t *testing.T) {
	a1 := NewPrefixPreservingAnonymizer([]byte("k1"))
	a2 := NewPrefixPreservingAnonymizer([]byte("k1"))
	a3 := NewPrefixPreservingAnonymizer([]byte("k2"))
	addr := netip.MustParseAddr("10.8.1.2")
	if a1.Addr(addr) != a2.Addr(addr) {
		t.Error("same key, different mapping")
	}
	if a1.Addr(addr) == a3.Addr(addr) {
		t.Error("different keys, same mapping (collision is ~2^-32)")
	}
	if a1.Addr(addr) == addr {
		t.Error("address mapped to itself (possible but ~2^-32; likely a no-op bug)")
	}
}

func TestPrefixPreservingInjective(t *testing.T) {
	// The bitwise construction is a permutation: distinct inputs map to
	// distinct outputs.
	an := NewPrefixPreservingAnonymizer([]byte("inj"))
	seen := map[netip.Addr]netip.Addr{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		in := u32addr(rng.Uint32())
		out := an.Addr(in)
		if prev, ok := seen[out]; ok && prev != in {
			t.Fatalf("collision: %v and %v both map to %v", prev, in, out)
		}
		seen[out] = in
	}
}

func TestPrefixPreservingIPv6PassThrough(t *testing.T) {
	an := NewPrefixPreservingAnonymizer([]byte("x"))
	v6 := netip.MustParseAddr("2001:db8::1")
	if an.Addr(v6) != v6 {
		t.Error("IPv6 should pass through")
	}
}

func TestQuickPrefixPropertyAdjacent(t *testing.T) {
	an := NewPrefixPreservingAnonymizer([]byte("q"))
	f := func(v uint32, bit uint8) bool {
		b := bit % 32
		x := v
		y := v ^ (1 << (31 - b)) // differ exactly at position b
		return commonPrefixLen(an.Addr(u32addr(x)), an.Addr(u32addr(y))) == int(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func u32addr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

func BenchmarkPrefixPreservingAddr(b *testing.B) {
	an := NewPrefixPreservingAnonymizer([]byte("bench"))
	rng := rand.New(rand.NewSource(1))
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		addrs[i] = u32addr(rng.Uint32())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = an.Addr(addrs[i&1023])
	}
}

func TestAnonymizerPrefixMode(t *testing.T) {
	an := NewPrefixAnonymizer([]byte("k"), campusNets)
	a := netip.MustParseAddr("10.8.1.2")
	b := netip.MustParseAddr("10.8.1.99") // same /24
	c := netip.MustParseAddr("10.8.77.1") // same /16 only
	aa, ab, ac := an.Addr(a), an.Addr(b), an.Addr(c)
	if aa == a {
		t.Error("campus address unchanged")
	}
	if commonPrefixLen(aa, ab) < 24 {
		t.Errorf("same /24 inputs diverge at bit %d", commonPrefixLen(aa, ab))
	}
	if commonPrefixLen(aa, ac) < 16 || commonPrefixLen(aa, ac) >= 24 {
		t.Errorf("same /16 inputs share %d bits", commonPrefixLen(aa, ac))
	}
	// Server addresses untouched.
	srv := netip.MustParseAddr("52.81.3.4")
	if an.Addr(srv) != srv {
		t.Error("server address changed in prefix mode")
	}
}
