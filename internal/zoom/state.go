package zoom

import (
	"zoomlens/internal/statecodec"
)

// Checkpoint codec for the substream-tracking identity: every stateful
// layer above (flow table substream accounting, metric engines, stream
// unification) keys on StreamKey, so it is walked here, once.

// Code walks the key's fields through c.
func (k *StreamKey) Code(c *statecodec.Codec) {
	c.U32(&k.SSRC)
	c.U8((*uint8)(&k.Type))
	c.U8(&k.Proto)
}

// StreamKeyKey is the key as a keyed-collection key.
var StreamKeyKey = &statecodec.Key[StreamKey]{Min: 3, Compare: StreamKey.Compare, Prefix: StreamKey.Prefix,
	Code: func(c *statecodec.Codec, k StreamKey) StreamKey { k.Code(c); return k }}

// Prefix packs the key into one word in Compare's order. The packing is
// exact, so a checkpoint sort by it never falls back to Compare, and the
// flow table indexes a flow's streams by it.
func (k StreamKey) Prefix() uint64 {
	return uint64(k.SSRC)<<16 | uint64(k.Type)<<8 | uint64(k.Proto)
}

// Compare orders keys by (SSRC, Type, Proto) for deterministic
// checkpoint encoding. Proto breaks ties last so all-Zoom state orders
// exactly as before the field existed.
func (k StreamKey) Compare(o StreamKey) int {
	if k.SSRC != o.SSRC {
		if k.SSRC < o.SSRC {
			return -1
		}
		return 1
	}
	if k.Type != o.Type {
		if k.Type < o.Type {
			return -1
		}
		return 1
	}
	if k.Proto != o.Proto {
		if k.Proto < o.Proto {
			return -1
		}
		return 1
	}
	return 0
}
