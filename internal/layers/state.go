package layers

import (
	"encoding/binary"
	"net/netip"

	"zoomlens/internal/statecodec"
)

// Checkpoint codec for the identity types other layers key their state
// by. FiveTuple has no behavior to separate — its state is itself.

// Code walks the tuple's fields through c.
func (ft *FiveTuple) Code(c *statecodec.Codec) {
	c.Addr(&ft.Src)
	c.Addr(&ft.Dst)
	c.U16(&ft.SrcPort)
	c.U16(&ft.DstPort)
	c.U8(&ft.Proto)
}

// TupleKey is the tuple as a keyed-collection key: the one place its
// deterministic order and smallest encoding (two invalid addresses, two
// ports, the protocol byte) are declared.
var TupleKey = &statecodec.Key[FiveTuple]{Min: 5, Compare: FiveTuple.Compare, Prefix: FiveTuple.Prefix,
	Code: func(c *statecodec.Codec, ft FiveTuple) FiveTuple { ft.Code(c); return ft }}

// addrWord returns netip.Addr.Compare's leading order of a as a class
// (0 invalid, 1 IPv4, 2 IPv6) and the address's leading 64 bits, an IPv4
// address right-aligned.
func addrWord(a netip.Addr) (class, bits uint64) {
	b := a.As16()
	switch {
	case a.Is4():
		return 1, uint64(binary.BigEndian.Uint32(b[12:]))
	case a.Is6():
		return 2, binary.BigEndian.Uint64(b[:8])
	}
	return 0, 0
}

// Prefix packs the leading part of Compare's order into a word, so that
// Compare(a, b) < 0 implies a.Prefix() <= b.Prefix(): the source's
// class in the top two bits, then its leading 62 bits if it is IPv6.
// An IPv4 (or invalid) source fits whole in the next 32 bits, so the
// last 30 carry the destination the same way: its class, then its
// leading 28 bits. Tuples that tie go on to Compare.
func (ft FiveTuple) Prefix() uint64 {
	class, bits := addrWord(ft.Src)
	if class == 2 {
		return class<<62 | bits>>2
	}
	dclass, dbits := addrWord(ft.Dst)
	if dclass == 1 {
		dbits <<= 32 // align an IPv4 destination's leading bits with IPv6's
	}
	return class<<62 | bits<<30 | dclass<<28 | dbits>>36
}

// Compare orders tuples lexicographically by (Src, Dst, SrcPort,
// DstPort, Proto). Checkpoint encoders sort map keys with it so
// identical state always produces identical checkpoint bytes.
func (ft FiveTuple) Compare(o FiveTuple) int {
	if c := ft.Src.Compare(o.Src); c != 0 {
		return c
	}
	if c := ft.Dst.Compare(o.Dst); c != 0 {
		return c
	}
	if ft.SrcPort != o.SrcPort {
		if ft.SrcPort < o.SrcPort {
			return -1
		}
		return 1
	}
	if ft.DstPort != o.DstPort {
		if ft.DstPort < o.DstPort {
			return -1
		}
		return 1
	}
	if ft.Proto != o.Proto {
		if ft.Proto < o.Proto {
			return -1
		}
		return 1
	}
	return 0
}
