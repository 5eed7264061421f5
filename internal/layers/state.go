package layers

import (
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
var TupleKey = &statecodec.Key[FiveTuple]{Min: 5, Compare: FiveTuple.Compare,
	Code: func(c *statecodec.Codec, ft FiveTuple) FiveTuple { ft.Code(c); return ft }}

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
