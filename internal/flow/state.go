package flow

import (
	"zoomlens/internal/layers"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/zoom"
)

// Checkpoint boundary for the flow table. A delta record re-serializes
// only what changed since the previous checkpoint encode: records whose
// dirty bit is set, plus deletion tombstones for entries evicted in
// between; a full record is the same walk with every record selected.
// The table arms itself at the first encode (MarkCheckpointed), so runs
// that never checkpoint record no tombstones and pay only a
// per-mutation bool store.

// maxDeltaTombstones bounds the eviction backlog a delta is willing to
// carry. Past it the table flags overflow and the next delta encode
// reports itself unavailable, forcing the caller back to a full
// snapshot (which resets everything).
const maxDeltaTombstones = 1 << 20

func (t *Table) tombstoneFlow(k layers.FiveTuple) {
	if !t.armed || t.overflow {
		return
	}
	if len(t.deadFlows) >= maxDeltaTombstones {
		t.overflow = true
		return
	}
	t.deadFlows = append(t.deadFlows, k)
}

func (t *Table) tombstoneStream(id MediaStreamID) {
	if !t.armed || t.overflow {
		return
	}
	if len(t.deadStreams) >= maxDeltaTombstones {
		t.overflow = true
		return
	}
	t.deadStreams = append(t.deadStreams, id)
}

// DeltaOverflow reports whether the eviction backlog outgrew what a
// delta can carry; the owner must fall back to a full snapshot.
func (t *Table) DeltaOverflow() bool { return t.overflow }

// MarkCheckpointed resets delta tracking after a checkpoint encode or
// decode: every record is now captured, so dirty bits and tombstones
// clear and the table arms for the next delta.
func (t *Table) MarkCheckpointed() {
	for _, f := range t.flows {
		f.dirty = false
	}
	for _, s := range t.streams {
		s.dirty = false
	}
	t.deadFlows = t.deadFlows[:0]
	t.deadStreams = t.deadStreams[:0]
	t.overflow = false
	t.armed = true
}

// CompareStreamID orders stream identifiers by (flow, key); checkpoint
// writers use it to serialize stream maps deterministically.
func CompareStreamID(a, b MediaStreamID) int {
	if c := a.Flow.Compare(b.Flow); c != 0 {
		return c
	}
	return a.Key.Compare(b.Key)
}

// Code walks the stream identifier's fields through c.
func (id *MediaStreamID) Code(c *statecodec.Codec) {
	id.Flow.Code(c)
	id.Key.Code(c)
}

// StreamIDKey is the stream identifier as a keyed-collection key.
var StreamIDKey = &statecodec.Key[MediaStreamID]{
	Min: layers.TupleKey.Min + zoom.StreamKeyKey.Min, Compare: CompareStreamID,
	Code: func(c *statecodec.Codec, id MediaStreamID) MediaStreamID { id.Code(c); return id }}

var (
	u8Key        = statecodec.UintKey[uint8]()
	mediaTypeKey = statecodec.UintKey[zoom.MediaType]()
	ptKeyKey     = &statecodec.Key[ptKey]{Min: 2,
		Compare: func(a, b ptKey) int {
			if a.mt != b.mt {
				return int(a.mt) - int(b.mt)
			}
			return int(a.pt) - int(b.pt)
		},
		Code: func(c *statecodec.Codec, k ptKey) ptKey {
			c.U8((*uint8)(&k.mt))
			c.U8(&k.pt)
			return k
		}}
)

func (a *shareAgg) code(c *statecodec.Codec) {
	c.U64(&a.pkts)
	c.U64(&a.bytes)
}

// Code walks the table through c: scalars and the evicted-entry share
// aggregates whole (both are small), tombstones for the flows and
// streams evicted since the last checkpoint encode, then the dirty
// records. Limits are configuration, not state: a decoding pass keeps
// whatever SetLimits installed on the receiver, so a checkpoint taken
// under one deployment's caps restores cleanly under another's. The
// caller owns chain integrity (a delta must follow the checkpoint the
// table was restored from), must check DeltaOverflow before a delta
// encode and MarkCheckpointed after any successful pass; a table whose
// decoding pass failed holds partially applied state and must be
// discarded.
func (t *Table) Code(c *statecodec.Codec) {
	c.U64(&t.totalPackets)
	c.U64(&t.totalBytes)
	c.U64(&t.ev.EvictedFlows)
	c.U64(&t.ev.EvictedStreams)
	c.U64(&t.ev.RejectedFlowPackets)
	c.U64(&t.ev.RejectedStreamPackets)
	c.U64(&t.ev.RejectedSubstreamPackets)

	statecodec.Tombstones(c, layers.TupleKey, t.deadFlows, func(k layers.FiveTuple) { delete(t.flows, k) })
	statecodec.Tombstones(c, StreamIDKey, t.deadStreams, func(id MediaStreamID) { delete(t.streams, id) })

	statecodec.Map(c, layers.TupleKey, &t.flows, nil,
		func(_ layers.FiveTuple, f *FlowStats) bool { return f.dirty },
		func(k layers.FiveTuple, f *FlowStats) {
			f.Flow = k
			c.Time(&f.FirstSeen)
			c.Time(&f.LastSeen)
			c.U64(&f.Packets)
			c.U64(&f.WireBytes)
			c.U64(&f.ServerBased)
			c.U64(&f.P2P)
			statecodec.MapVal(c, mediaTypeKey, &f.ByEncapType, func(_ zoom.MediaType, n uint64) uint64 {
				c.U64(&n)
				return n
			})
		})
	statecodec.Map(c, StreamIDKey, &t.streams, nil,
		func(_ MediaStreamID, s *StreamStats) bool { return s.dirty },
		func(id MediaStreamID, s *StreamStats) {
			s.ID = id
			c.Time(&s.FirstSeen)
			c.Time(&s.LastSeen)
			c.U64(&s.Packets)
			c.U64(&s.WireBytes)
			c.U64(&s.MediaBytes)
			c.U32(&s.FirstRTPTimestamp)
			c.U32(&s.LastRTPTimestamp)
			c.U16(&s.FirstSeq)
			c.U16(&s.LastSeq)
			c.U64(&s.RTCPPackets)
			statecodec.Map(c, u8Key, &s.Substreams, nil, nil, func(pt uint8, sub *SubstreamStats) {
				sub.PayloadType = pt
				c.U64(&sub.Packets)
				c.U64(&sub.Bytes)
			})
		})

	statecodec.Map(c, mediaTypeKey, &t.evictedEncap, nil, nil, func(_ zoom.MediaType, a *shareAgg) { a.code(c) })
	statecodec.Map(c, ptKeyKey, &t.evictedPT, nil, nil, func(_ ptKey, a *shareAgg) { a.code(c) })
}
