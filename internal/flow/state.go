package flow

import (
	"zoomlens/internal/layers"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/zoom"
)

// Checkpoint boundary for the flow table. A delta record re-serializes
// only what changed since the previous checkpoint encode — the flows and
// streams on the table's two change logs, plus tombstones for the ones of
// that checkpoint evicted in between; a full record is the same walk with
// every record selected.

// MarkCheckpointed resets delta tracking after a checkpoint encode or
// decode: every record is now captured, so both logs re-anchor and arm.
func (t *Table) MarkCheckpointed() {
	t.flowLog.MarkCheckpointed()
	t.streamLog.MarkCheckpointed()
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

// StreamIDKey is the stream identifier as a keyed-collection key. Its
// prefix is the flow's: the streams of one flow tie on it.
var StreamIDKey = &statecodec.Key[MediaStreamID]{
	Min: layers.TupleKey.Min + zoom.StreamKeyKey.Min, Compare: CompareStreamID,
	Prefix: func(id MediaStreamID) uint64 { return id.Flow.Prefix() },
	Code:   func(c *statecodec.Codec, id MediaStreamID) MediaStreamID { id.Code(c); return id }}

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
// streams of the last checkpoint evicted since, then the changed
// records: flows in five-tuple order, then streams in (flow, key) order —
// StreamIDKey's, which is also the order of walking each flow's index in
// turn, so the record reads as it did when the table kept the streams in a
// map of their own. A decoding pass hangs each stream on its flow and
// refuses one whose flow the table does not hold; a flow's tombstone takes
// the flow's streams with it. stream, if set, walks the driver's state
// after each stream record's fields (left as Records has it); a decoding
// pass keeps Owner. Limits are configuration, not state: a
// decoding pass keeps whatever SetLimits installed on the receiver, so a
// checkpoint taken under one deployment's caps restores cleanly under
// another's. The caller owns chain integrity (a delta must follow the
// checkpoint the table was restored from) and must call MarkCheckpointed
// after any successful pass; a table whose decoding pass failed holds
// partially applied state and must be discarded.
func (t *Table) Code(c *statecodec.Codec, stream func(s *StreamStats, left int)) {
	c.U64(&t.totalPackets)
	c.U64(&t.totalBytes)
	c.U64(&t.ev.EvictedFlows)
	c.U64(&t.ev.EvictedStreams)
	c.U64(&t.ev.RejectedFlowPackets)
	c.U64(&t.ev.RejectedStreamPackets)
	c.U64(&t.ev.RejectedSubstreamPackets)

	statecodec.Tombstones(c, layers.TupleKey, &t.flowLog, func(k layers.FiveTuple) {
		if f := t.flows[k]; f != nil {
			t.streams -= len(f.streams)
			delete(t.flows, k)
		}
	})
	statecodec.Tombstones(c, StreamIDKey, &t.streamLog, func(id MediaStreamID) {
		if f := t.flows[id.Flow]; f.stream(id.Key) != nil {
			delete(f.streams, id.Key.Prefix())
			t.streams--
		}
	})

	statecodec.Map(c, layers.TupleKey, &t.flows,
		// A flow a delta updates keeps its streams: only the changed ones follow.
		func(f *FlowStats) { *f = FlowStats{streams: f.streams, ByEncapType: f.ByEncapType[:0]} },
		&t.flowLog,
		func(k layers.FiveTuple, f *FlowStats) {
			f.Flow = k
			c.Time(&f.FirstSeen)
			c.Time(&f.LastSeen)
			c.U64(&f.Packets)
			c.U64(&f.WireBytes)
			c.U64(&f.ServerBased)
			c.U64(&f.P2P)
			var buf [8]zoom.MediaType
			types := buf[:0]
			for _, e := range f.ByEncapType {
				types = append(types, e.Type)
			}
			statecodec.Keys(c, mediaTypeKey, types, func(mt zoom.MediaType) { c.U64(&f.encap(mt).Packets) })
		})

	// The streams hang off the flows, so the walk gathers the selected ones
	// itself and finds or creates each decoded one on its flow.
	type streamEntry = statecodec.Entry[MediaStreamID, *StreamStats]
	var (
		streams    []streamEntry
		streamSlab statecodec.Slab[StreamStats]
	)
	switch {
	case !c.Encoding():
	case c.Full():
		streams = make([]streamEntry, 0, t.streams)
		t.EachStream(func(s *StreamStats) { streams = append(streams, streamEntry{K: s.ID, V: s}) })
	default:
		streams = t.streamLog.Changed()
	}
	statecodec.Records(c, StreamIDKey, streams, func(id MediaStreamID, s *StreamStats, left int) {
		if !c.Encoding() {
			f := t.flows[id.Flow]
			if f == nil {
				c.Failf("flow.Table stream %v on flow %v, which the table does not hold", id.Key, id.Flow)
				return
			}
			s = f.stream(id.Key)
			fresh := s == nil
			if fresh {
				s = streamSlab.New(left)
			}
			*s = StreamStats{ID: id, Substreams: s.Substreams[:0], Owner: s.Owner}
			if fresh {
				f.addStream(s)
				t.streams++
			}
		}
		c.Time(&s.FirstSeen)
		c.Time(&s.LastSeen)
		c.U64(&s.Packets)
		c.U64(&s.WireBytes)
		var buf [8]uint8
		pts := buf[:0]
		for i := range s.Substreams {
			pts = append(pts, s.Substreams[i].PayloadType)
		}
		statecodec.Keys(c, u8Key, pts, func(pt uint8) {
			sub := s.Substream(pt)
			if sub == nil {
				sub = s.addSubstream(pt)
			}
			c.U64(&sub.Packets)
			c.U64(&sub.Bytes)
		})
		if stream != nil {
			stream(s, left)
		}
	})

	statecodec.Map(c, mediaTypeKey, &t.evictedEncap, nil, nil, func(_ zoom.MediaType, a *shareAgg) { a.code(c) })
	statecodec.Map(c, ptKeyKey, &t.evictedPT, nil, nil, func(_ ptKey, a *shareAgg) { a.code(c) })
}
