package flow

import (
	"zoomlens/internal/layers"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/zoom"
)

// Checkpoint boundary for the flow table. A delta record re-serializes
// only what changed since the previous checkpoint encode: the records on
// the table's dirty lists, plus deletion tombstones for entries evicted in
// between; a full record is the same walk with every record selected.
// The table arms itself at the first encode (MarkCheckpointed), so runs
// that never checkpoint record nothing and pay a compare per packet.

// maxDeltaTombstones bounds each backlog a delta is willing to carry:
// the two tombstone lists and the two dirty lists (an evicted record
// stays on its dirty list, and so in memory, until the next checkpoint).
// Past it the table flags overflow and stops recording, and the next
// delta encode reports itself unavailable, forcing the caller back to a
// full snapshot (which resets everything).
const maxDeltaTombstones = 1 << 20

// recording reports whether a tracking list n entries long takes
// another: the table is armed and no list has outgrown the bound.
func (t *Table) recording(n int) bool {
	if !t.armed || t.overflow {
		return false
	}
	if n >= maxDeltaTombstones {
		t.overflow = true
		return false
	}
	return true
}

func (t *Table) tombstoneFlow(k layers.FiveTuple) {
	if t.recording(len(t.deadFlows)) {
		t.deadFlows = append(t.deadFlows, k)
	}
}

func (t *Table) tombstoneStream(id MediaStreamID) {
	if t.recording(len(t.deadStreams)) {
		t.deadStreams = append(t.deadStreams, id)
	}
}

// dirtyFlows lists flow records for statecodec.Map; a record holds its
// own key.
type dirtyFlows []*FlowStats

func (d dirtyFlows) Len() int                                { return len(d) }
func (d dirtyFlows) At(i int) (layers.FiveTuple, *FlowStats) { return d[i].Flow, d[i] }

// markFlow puts a clean flow record on the dirty list.
func (t *Table) markFlow(f *FlowStats) {
	if t.recording(len(t.dirtyFlows)) {
		f.dirty = true
		t.dirtyFlows = append(t.dirtyFlows, f)
	}
}

// markStream puts a clean stream record on the dirty list.
func (t *Table) markStream(s *StreamStats) {
	if t.recording(len(t.dirtyStreams)) {
		s.dirty = true
		t.dirtyStreams = append(t.dirtyStreams, s)
	}
}

// DeltaOverflow reports whether a backlog outgrew what a delta can
// carry; the owner must fall back to a full snapshot.
func (t *Table) DeltaOverflow() bool { return t.overflow }

// MarkCheckpointed resets delta tracking after a checkpoint encode or
// decode: every record is now captured, so the listed records' dirty bits
// and the lists themselves clear, and the table arms for the next delta.
func (t *Table) MarkCheckpointed() {
	for _, f := range t.dirtyFlows {
		f.dirty = false
	}
	for _, s := range t.dirtyStreams {
		s.dirty = false
	}
	// Cleared, not just cut: a listed record that was evicted since is
	// otherwise held by the list's spare capacity.
	clear(t.dirtyFlows)
	clear(t.dirtyStreams)
	t.dirtyFlows, t.dirtyStreams = t.dirtyFlows[:0], t.dirtyStreams[:0]
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
// records: flows in five-tuple order, then streams in (flow, key) order —
// StreamIDKey's, which is also the order of walking each flow's index in
// turn, so the record reads as it did when the table kept the streams in a
// map of their own. A decoding pass hangs each stream on its flow and
// refuses one whose flow the table does not hold; a flow's tombstone takes
// the flow's streams with it. Limits are configuration, not state: a
// decoding pass keeps whatever SetLimits installed on the receiver, so a
// checkpoint taken under one deployment's caps restores cleanly under
// another's. The caller owns chain integrity (a delta must follow the
// checkpoint the table was restored from), must check DeltaOverflow before
// a delta encode and MarkCheckpointed after any successful pass; a table
// whose decoding pass failed holds partially applied state and must be
// discarded.
func (t *Table) Code(c *statecodec.Codec) {
	c.U64(&t.totalPackets)
	c.U64(&t.totalBytes)
	c.U64(&t.ev.EvictedFlows)
	c.U64(&t.ev.EvictedStreams)
	c.U64(&t.ev.RejectedFlowPackets)
	c.U64(&t.ev.RejectedStreamPackets)
	c.U64(&t.ev.RejectedSubstreamPackets)

	statecodec.Tombstones(c, layers.TupleKey, t.deadFlows, func(k layers.FiveTuple) {
		if f := t.flows[k]; f != nil {
			t.streams -= len(f.streams)
			delete(t.flows, k)
		}
	})
	statecodec.Tombstones(c, StreamIDKey, t.deadStreams, func(id MediaStreamID) {
		if f := t.flows[id.Flow]; f.stream(id.Key) != nil {
			delete(f.streams, packKey(id.Key))
			t.streams--
		}
	})

	statecodec.Map(c, layers.TupleKey, &t.flows,
		// A flow a delta updates keeps its streams: only the dirty ones follow.
		func(f *FlowStats) { *f = FlowStats{streams: f.streams, ByEncapType: f.ByEncapType[:0]} },
		t.dirtyFlows,
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
		t.eachStream(func(s *StreamStats) { streams = append(streams, streamEntry{K: s.ID, V: s}) })
	default:
		streams = make([]streamEntry, 0, len(t.dirtyStreams))
		for _, s := range t.dirtyStreams {
			// A listed record evicted since is skipped; its key may be a
			// new record's by now.
			if f := t.flows[s.ID.Flow]; f.stream(s.ID.Key) == s {
				streams = append(streams, streamEntry{K: s.ID, V: s})
			}
		}
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
			*s = StreamStats{ID: id, Substreams: s.Substreams[:0]} // the driver's Owner handle goes too
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
	})

	statecodec.Map(c, mediaTypeKey, &t.evictedEncap, nil, nil, func(_ zoom.MediaType, a *shareAgg) { a.code(c) })
	statecodec.Map(c, ptKeyKey, &t.evictedPT, nil, nil, func(_ ptKey, a *shareAgg) { a.code(c) })
}
