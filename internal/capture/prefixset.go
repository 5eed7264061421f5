package capture

import (
	"cmp"
	"encoding/binary"
	"net/netip"
	"slices"
)

// PrefixSet answers "is this address inside any of these prefixes" — the
// stateless stage-1 match the Tofino does in TCAM, and the question
// every layer that separates Zoom servers from clients, or campus from
// the world, asks per packet. It is built once from a prefix list and
// is immutable afterwards, so it may be shared across goroutines.
//
// Contains equals netip.Prefix.Contains tried over the original list,
// for every address: an IPv4 prefix matches only plain IPv4 addresses
// (not their IPv4-mapped IPv6 form), an IPv6 prefix only IPv6 ones,
// zoned addresses and invalid prefixes match nothing
// (FuzzPrefixSetVsScan holds it to that).
//
// IPv4, where the traffic is, is a binary search: the prefixes are
// masked and merged into disjoint sorted [lo, hi] ranges, searched in
// log2(ranges) compares — instead of 2 × 117 Prefix.Contains calls
// (500–650 ns each pass; BenchmarkPrefixSetContains). In front of the
// search sits a /16 index, one bit for every /16 a range touches (8 KiB):
// an address whose bit is clear is rejected without the search. On a
// border tap's mix of addresses the search's one branch goes either way
// at random, while the index's almost always goes the same way: the
// tap-mix rows cost ~4 ns an address with the index, against ~7 ns
// without it for the modelled 117 Zoom networks (one merged range) and
// ~12 ns for 117 prefixes that do not merge at all. An address probed
// over and over, as the other rows do, trains the predictor and hides
// the difference. IPv6 lists are a handful of entries and stay a scan.
type PrefixSet struct {
	v4 []v4Range
	v6 []netip.Prefix
	n  int
	// slash16 has bit v>>16 set when some range holds an address of that
	// /16; a clear bit is a sure miss.
	slash16 [1 << 16 / 64]uint64
}

type v4Range struct{ lo, hi uint32 }

// NewPrefixSet builds the set of ps. The slice is not retained.
func NewPrefixSet(ps []netip.Prefix) *PrefixSet {
	s := &PrefixSet{n: len(ps)}
	for _, p := range ps {
		switch {
		case !p.IsValid():
		case p.Addr().Is4():
			a4 := p.Masked().Addr().As4()
			lo := binary.BigEndian.Uint32(a4[:])
			hi := lo | ^uint32(0)>>p.Bits()
			s.v4 = append(s.v4, v4Range{lo, hi})
			for b := lo >> 16; b <= hi>>16; b++ {
				s.slash16[b/64] |= 1 << (b % 64)
			}
		default:
			s.v6 = append(s.v6, p)
		}
	}
	slices.SortFunc(s.v4, func(a, b v4Range) int { return cmp.Compare(a.lo, b.lo) })
	// Merge overlapping and adjacent ranges in place.
	merged := s.v4[:0]
	for _, r := range s.v4 {
		if n := len(merged); n > 0 && uint64(r.lo) <= uint64(merged[n-1].hi)+1 {
			merged[n-1].hi = max(merged[n-1].hi, r.hi)
			continue
		}
		merged = append(merged, r)
	}
	s.v4 = merged
	return s
}

// Len is the number of prefixes the set was built from (invalid ones
// included: a configured list is a configured list).
func (s *PrefixSet) Len() int { return s.n }

// Contains reports whether any prefix of the set contains a.
func (s *PrefixSet) Contains(a netip.Addr) bool {
	if a.Is4() {
		a4 := a.As4()
		v := binary.BigEndian.Uint32(a4[:])
		if b := v >> 16; s.slash16[b/64]&(1<<(b%64)) == 0 {
			return false
		}
		// First range ending at or after v; it is the only candidate.
		lo, hi := 0, len(s.v4)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s.v4[mid].hi < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo < len(s.v4) && s.v4[lo].lo <= v
	}
	for _, p := range s.v6 {
		if p.Contains(a) {
			return true
		}
	}
	return false
}
