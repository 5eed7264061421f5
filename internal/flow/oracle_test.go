package flow

// The table as it was before a flow owned its streams — two maps, the
// streams keyed by the 64-byte MediaStreamID, ByEncapType and Substreams
// maps on the records — kept verbatim but for the type names and the
// stream fields no output read (the RTP timestamp and sequence ranges, the
// media-byte and RTCP counts), as the reference
// TestTableAgainstTwoMapOracle holds Table to.

import (
	"sort"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/zoom"
)

// oracleSubstream accumulates per-payload-type counters within a stream.
type oracleSubstream struct {
	PayloadType uint8
	Packets     uint64
	Bytes       uint64 // RTP payload bytes
}

// oracleStream is the per-media-stream accounting record.
type oracleStream struct {
	ID         MediaStreamID
	FirstSeen  time.Time
	LastSeen   time.Time
	Packets    uint64
	WireBytes  uint64
	Substreams map[uint8]*oracleSubstream

	// Owner is the table's driver's to use: a handle to whatever it keeps
	// per stream, so a packet the table has already resolved to this
	// record needs no second lookup there. The table never reads it and no
	// record carries it: a decoded or absorbed record has none.
	Owner any

	// mark is the record's entry in the table's stream change log.
	mark statecodec.Mark
}

// oracleFlow is the per-5-tuple accounting record.
type oracleFlow struct {
	Flow        layers.FiveTuple
	FirstSeen   time.Time
	LastSeen    time.Time
	Packets     uint64
	WireBytes   uint64
	ServerBased uint64 // packets with an SFU encapsulation
	P2P         uint64
	// ByEncapType counts packets per media encapsulation type value
	// (Table 2).
	ByEncapType map[zoom.MediaType]uint64

	// mark is the record's entry in the table's flow change log.
	mark statecodec.Mark
}

// oracleTable demultiplexes records into flows and streams.
type oracleTable struct {
	flows   map[layers.FiveTuple]*oracleFlow
	streams map[MediaStreamID]*oracleStream

	// Totals for Table 2/6.
	totalPackets uint64
	totalBytes   uint64

	limits Limits
	ev     EvictionStats
	// evictedEncap and evictedPT preserve the Table 2/3 contributions of
	// evicted entries so the final report counts them.
	evictedEncap map[zoom.MediaType]*shareAgg
	evictedPT    map[ptKey]*shareAgg

	// Delta-checkpoint tracking, under the Table's rule.
	flowLog   statecodec.ChangeLog[layers.FiveTuple, oracleFlow]
	streamLog statecodec.ChangeLog[MediaStreamID, oracleStream]
}

// newOracleTable returns an empty table.
func newOracleTable() *oracleTable {
	return &oracleTable{
		flows:   make(map[layers.FiveTuple]*oracleFlow),
		streams: make(map[MediaStreamID]*oracleStream),
	}
}

// SetLimits installs state bounds; it can be called once, before any
// record is observed.
func (t *oracleTable) SetLimits(l Limits) { t.limits = l }

// Evictions returns the bounded-state counters.
func (t *oracleTable) Evictions() EvictionStats { return t.ev }

// Observe ingests one record, updating flow and stream state. It returns
// the stream's stats entry (nil for RTCP-only bookkeeping is never nil:
// RTCP packets are attributed to the stream of their first referenced
// SSRC when one exists).
func (t *oracleTable) Observe(r *Record) *oracleStream {
	t.totalPackets++
	t.totalBytes += uint64(r.WireLen)

	f := t.flows[r.Flow]
	if f == nil {
		if t.limits.MaxFlows > 0 && len(t.flows) >= t.limits.MaxFlows {
			t.ev.RejectedFlowPackets++
			return nil
		}
		f = &oracleFlow{Flow: r.Flow, FirstSeen: r.Time, ByEncapType: make(map[zoom.MediaType]uint64), mark: t.flowLog.NewMark()}
		t.flows[r.Flow] = f
	}
	f.LastSeen = r.Time
	t.flowLog.Touch(&f.mark, &f.Flow, f)
	f.Packets++
	f.WireBytes += uint64(r.WireLen)
	f.ByEncapType[r.Z.Media.Type]++
	if r.Z.ServerBased {
		f.ServerBased++
	} else {
		f.P2P++
	}

	var key zoom.StreamKey
	switch {
	case r.Z.IsMedia():
		key = zoom.StreamKey{SSRC: r.Z.RTP.SSRC, Type: r.Z.Media.Type, Proto: r.Proto}
	case r.Z.Media.Type.IsRTCP() && len(r.Z.RTCP.SenderReports) > 0:
		// Attribute the report to the stream it describes. RTCP SRs for a
		// media stream use the media type of their carrying encapsulation
		// only (33/34), so find any existing stream on this flow with the
		// SSRC.
		ssrc := r.Z.RTCP.SenderReports[0].SSRC
		if s := t.findStreamBySSRC(r.Flow, ssrc, r.Proto); s != nil {
			s.LastSeen = r.Time
			t.streamLog.Touch(&s.mark, &s.ID, s)
			return s
		}
		return nil
	default:
		return nil
	}

	id := MediaStreamID{Flow: r.Flow, Key: key}
	s := t.streams[id]
	if s == nil {
		if t.limits.MaxStreams > 0 && len(t.streams) >= t.limits.MaxStreams {
			t.ev.RejectedStreamPackets++
			return nil
		}
		s = &oracleStream{ID: id, FirstSeen: r.Time, Substreams: make(map[uint8]*oracleSubstream), mark: t.streamLog.NewMark()}
		t.streams[id] = s
	}
	s.LastSeen = r.Time
	t.streamLog.Touch(&s.mark, &s.ID, s)
	s.Packets++
	s.WireBytes += uint64(r.WireLen)
	sub := s.Substreams[r.Z.RTP.PayloadType]
	if sub == nil {
		if t.limits.MaxSubstreams > 0 && len(s.Substreams) >= t.limits.MaxSubstreams {
			t.ev.RejectedSubstreamPackets++
			return s
		}
		sub = &oracleSubstream{PayloadType: r.Z.RTP.PayloadType}
		s.Substreams[r.Z.RTP.PayloadType] = sub
	}
	sub.Packets++
	sub.Bytes += uint64(len(r.Z.RTP.Payload))
	return s
}

// EvictIdle removes every flow and stream whose last packet is not after
// cutoff, folding their Table 2/3 contributions into hidden aggregates so
// EncapShares, PayloadTypeShares, and Totals still count them. It returns
// the number of flows and streams evicted. Because a flow's LastSeen is
// at least as recent as any of its streams', a pass never evicts a flow
// while keeping one of its streams.
func (t *oracleTable) EvictIdle(cutoff time.Time) (flows, streams int) {
	for id, s := range t.streams {
		if s.LastSeen.After(cutoff) {
			continue
		}
		t.foldStream(s)
		delete(t.streams, id)
		t.streamLog.Drop(&s.mark, id)
		t.ev.EvictedStreams++
		streams++
	}
	for k, f := range t.flows {
		if f.LastSeen.After(cutoff) {
			continue
		}
		t.foldFlow(f)
		delete(t.flows, k)
		t.flowLog.Drop(&f.mark, k)
		t.ev.EvictedFlows++
		flows++
	}
	return flows, streams
}

func (t *oracleTable) evictedEncapAgg(mt zoom.MediaType) *shareAgg {
	if t.evictedEncap == nil {
		t.evictedEncap = make(map[zoom.MediaType]*shareAgg)
	}
	a := t.evictedEncap[mt]
	if a == nil {
		a = &shareAgg{}
		t.evictedEncap[mt] = a
	}
	return a
}

func (t *oracleTable) foldStream(s *oracleStream) {
	a := t.evictedEncapAgg(s.ID.Key.Type)
	a.pkts += s.Packets
	a.bytes += s.WireBytes
	if t.evictedPT == nil {
		t.evictedPT = make(map[ptKey]*shareAgg)
	}
	for pt, sub := range s.Substreams {
		k := ptKey{s.ID.Key.Type, pt}
		p := t.evictedPT[k]
		if p == nil {
			p = &shareAgg{}
			t.evictedPT[k] = p
		}
		p.pkts += sub.Packets
		p.bytes += sub.Bytes
	}
}

func (t *oracleTable) foldFlow(f *oracleFlow) {
	// Streams carry their own packet counts; a flow's independent Table 2
	// contribution is its RTCP packets (EncapShares counts those from
	// flows, not streams).
	for mt, n := range f.ByEncapType {
		if !mt.IsRTCP() {
			continue
		}
		t.evictedEncapAgg(mt).pkts += n
	}
}

func (t *oracleTable) findStreamBySSRC(ft layers.FiveTuple, ssrc uint32, proto uint8) *oracleStream {
	for _, mt := range []zoom.MediaType{zoom.TypeVideo, zoom.TypeAudio, zoom.TypeScreenShare} {
		if s, ok := t.streams[MediaStreamID{Flow: ft, Key: zoom.StreamKey{SSRC: ssrc, Type: mt, Proto: proto}}]; ok {
			return s
		}
	}
	return nil
}

// Flows returns all flow records, ordered by first-seen time. Flow keys
// are rendered once before sorting: String() inside the comparator would
// allocate O(n log n) strings.
func (t *oracleTable) Flows() []*oracleFlow {
	out := make([]*oracleFlow, 0, len(t.flows))
	keys := make(map[*oracleFlow]string, len(t.flows))
	for _, f := range t.flows {
		out = append(out, f)
		keys[f] = f.Flow.String()
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].FirstSeen.Equal(out[j].FirstSeen) {
			return out[i].FirstSeen.Before(out[j].FirstSeen)
		}
		return keys[out[i]] < keys[out[j]]
	})
	return out
}

// Streams returns all stream records, ordered by first-seen time.
func (t *oracleTable) Streams() []*oracleStream {
	out := make([]*oracleStream, 0, len(t.streams))
	keys := make(map[*oracleStream]string, len(t.streams))
	for _, s := range t.streams {
		out = append(out, s)
		keys[s] = s.ID.Flow.String()
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].FirstSeen.Equal(out[j].FirstSeen) {
			return out[i].FirstSeen.Before(out[j].FirstSeen)
		}
		if out[i].ID.Key.SSRC != out[j].ID.Key.SSRC {
			return out[i].ID.Key.SSRC < out[j].ID.Key.SSRC
		}
		return keys[out[i]] < keys[out[j]]
	})
	return out
}

// Absorb merges src's flows, streams, and totals into t, leaving src
// unchanged but for the Owner handles, which it drops: t's driver is
// another one. The sharded parallel analyzer calls it at merge time; shard
// tables are keyed by disjoint five-tuple sets there, but overlapping
// keys are combined correctly anyway (counters summed, first/last seen
// widened) so Absorb is safe for general table union.
func (t *oracleTable) Absorb(src *oracleTable) {
	t.totalPackets += src.totalPackets
	t.totalBytes += src.totalBytes
	t.ev.EvictedFlows += src.ev.EvictedFlows
	t.ev.EvictedStreams += src.ev.EvictedStreams
	t.ev.RejectedFlowPackets += src.ev.RejectedFlowPackets
	t.ev.RejectedStreamPackets += src.ev.RejectedStreamPackets
	t.ev.RejectedSubstreamPackets += src.ev.RejectedSubstreamPackets
	for mt, a := range src.evictedEncap {
		d := t.evictedEncapAgg(mt)
		d.pkts += a.pkts
		d.bytes += a.bytes
	}
	for k, a := range src.evictedPT {
		if t.evictedPT == nil {
			t.evictedPT = make(map[ptKey]*shareAgg)
		}
		d := t.evictedPT[k]
		if d == nil {
			d = &shareAgg{}
			t.evictedPT[k] = d
		}
		d.pkts += a.pkts
		d.bytes += a.bytes
	}
	for k, f := range src.flows {
		f.mark = statecodec.Mark{} // on none of this table's lists
		dst := t.flows[k]
		if dst == nil {
			t.flows[k] = f
			continue
		}
		if f.FirstSeen.Before(dst.FirstSeen) {
			dst.FirstSeen = f.FirstSeen
		}
		if f.LastSeen.After(dst.LastSeen) {
			dst.LastSeen = f.LastSeen
		}
		dst.Packets += f.Packets
		dst.WireBytes += f.WireBytes
		dst.ServerBased += f.ServerBased
		dst.P2P += f.P2P
		for mt, n := range f.ByEncapType {
			dst.ByEncapType[mt] += n
		}
	}
	for k, s := range src.streams {
		dst := t.streams[k]
		s.Owner, s.mark = nil, statecodec.Mark{}
		if dst == nil {
			t.streams[k] = s
			continue
		}
		dst.Owner = nil
		if s.FirstSeen.Before(dst.FirstSeen) {
			dst.FirstSeen = s.FirstSeen
		}
		if s.LastSeen.After(dst.LastSeen) {
			dst.LastSeen = s.LastSeen
		}
		dst.Packets += s.Packets
		dst.WireBytes += s.WireBytes
		for pt, sub := range s.Substreams {
			d := dst.Substreams[pt]
			if d == nil {
				dst.Substreams[pt] = sub
				continue
			}
			d.Packets += sub.Packets
			d.Bytes += sub.Bytes
		}
	}
}

// Stream looks up one stream record.
func (t *oracleTable) Stream(id MediaStreamID) (*oracleStream, bool) {
	s, ok := t.streams[id]
	return s, ok
}

// Totals returns the capture summary counters.
func (t *oracleTable) Totals() Totals {
	return Totals{
		Packets: t.totalPackets,
		Bytes:   t.totalBytes,
		Flows:   len(t.flows),
		Streams: len(t.streams),
	}
}

// EncapShares aggregates packet and byte shares by media encapsulation
// type across all flows (Table 2). totalPackets/totalBytes are the
// denominators; pass the capture totals including undecodable packets to
// match the paper's accounting.
func (t *oracleTable) EncapShares(totalPackets, totalBytes uint64) []EncapTypeShare {
	type agg struct{ pkts, bytes uint64 }
	byType := map[zoom.MediaType]*agg{}
	for _, s := range t.streams {
		a := byType[s.ID.Key.Type]
		if a == nil {
			a = &agg{}
			byType[s.ID.Key.Type] = a
		}
		a.pkts += s.Packets
		a.bytes += s.WireBytes
	}
	// RTCP packets are not in stream records' packet counts; count them
	// from flows.
	for _, f := range t.flows {
		for mt, n := range f.ByEncapType {
			if !mt.IsRTCP() {
				continue
			}
			a := byType[mt]
			if a == nil {
				a = &agg{}
				byType[mt] = a
			}
			a.pkts += n
		}
	}
	// Evicted entries still count toward the report.
	for mt, ea := range t.evictedEncap {
		a := byType[mt]
		if a == nil {
			a = &agg{}
			byType[mt] = a
		}
		a.pkts += ea.pkts
		a.bytes += ea.bytes
	}
	out := make([]EncapTypeShare, 0, len(byType))
	for mt, a := range byType {
		share := EncapTypeShare{Type: mt, Packets: a.pkts, Bytes: a.bytes}
		if totalPackets > 0 {
			share.PacketsPct = 100 * float64(a.pkts) / float64(totalPackets)
		}
		if totalBytes > 0 {
			share.BytesPct = 100 * float64(a.bytes) / float64(totalBytes)
		}
		out = append(out, share)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Packets > out[j].Packets })
	return out
}

// PayloadTypeShares aggregates substream shares by (media type, RTP PT)
// across all streams (Table 3).
func (t *oracleTable) PayloadTypeShares(totalPackets, totalBytes uint64) []PayloadTypeShare {
	type agg struct{ pkts, bytes uint64 }
	byKey := map[ptKey]*agg{}
	for _, s := range t.streams {
		for pt, sub := range s.Substreams {
			k := ptKey{s.ID.Key.Type, pt}
			a := byKey[k]
			if a == nil {
				a = &agg{}
				byKey[k] = a
			}
			a.pkts += sub.Packets
			a.bytes += sub.Bytes
		}
	}
	// Evicted substreams still count toward the report.
	for k, ea := range t.evictedPT {
		a := byKey[k]
		if a == nil {
			a = &agg{}
			byKey[k] = a
		}
		a.pkts += ea.pkts
		a.bytes += ea.bytes
	}
	out := make([]PayloadTypeShare, 0, len(byKey))
	for k, a := range byKey {
		share := PayloadTypeShare{
			Media:       k.mt,
			PayloadType: k.pt,
			Substream:   zoom.ClassifySubstream(k.mt, k.pt),
			Packets:     a.pkts,
			Bytes:       a.bytes,
		}
		if totalPackets > 0 {
			share.PacketsPct = 100 * float64(a.pkts) / float64(totalPackets)
		}
		if totalBytes > 0 {
			share.BytesPct = 100 * float64(a.bytes) / float64(totalBytes)
		}
		out = append(out, share)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Packets > out[j].Packets })
	return out
}

// MarkCheckpointed resets delta tracking after a checkpoint encode or
// decode: both logs re-anchor and arm.
func (t *oracleTable) MarkCheckpointed() {
	t.flowLog.MarkCheckpointed()
	t.streamLog.MarkCheckpointed()
}

// Code walks the table through c: scalars and the evicted-entry share
// aggregates whole (both are small), tombstones for the flows and
// streams evicted since the last checkpoint encode, then the dirty
// records. Limits are configuration, not state: a decoding pass keeps
// whatever SetLimits installed on the receiver, so a checkpoint taken
// under one deployment's caps restores cleanly under another's. The
// caller owns chain integrity (a delta must follow the checkpoint the
// table was restored from) and must call MarkCheckpointed after any
// successful pass; a table whose decoding pass failed holds partially
// applied state and must be discarded. The oracle's streams carry no
// driver state, so it takes no stream walk.
func (t *oracleTable) Code(c *statecodec.Codec, _ func(*StreamStats, int)) {
	c.U64(&t.totalPackets)
	c.U64(&t.totalBytes)
	c.U64(&t.ev.EvictedFlows)
	c.U64(&t.ev.EvictedStreams)
	c.U64(&t.ev.RejectedFlowPackets)
	c.U64(&t.ev.RejectedStreamPackets)
	c.U64(&t.ev.RejectedSubstreamPackets)

	statecodec.Tombstones(c, layers.TupleKey, &t.flowLog, func(k layers.FiveTuple) { delete(t.flows, k) })
	statecodec.Tombstones(c, StreamIDKey, &t.streamLog, func(id MediaStreamID) { delete(t.streams, id) })

	statecodec.Map(c, layers.TupleKey, &t.flows, nil,
		&t.flowLog,
		func(k layers.FiveTuple, f *oracleFlow) {
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
		&t.streamLog,
		func(id MediaStreamID, s *oracleStream) {
			s.ID = id
			c.Time(&s.FirstSeen)
			c.Time(&s.LastSeen)
			c.U64(&s.Packets)
			c.U64(&s.WireBytes)
			statecodec.Map(c, u8Key, &s.Substreams, nil, nil, func(pt uint8, sub *oracleSubstream) {
				sub.PayloadType = pt
				c.U64(&sub.Packets)
				c.U64(&sub.Bytes)
			})
		})

	statecodec.Map(c, mediaTypeKey, &t.evictedEncap, nil, nil, func(_ zoom.MediaType, a *shareAgg) { a.code(c) })
	statecodec.Map(c, ptKeyKey, &t.evictedPT, nil, nil, func(_ ptKey, a *shareAgg) { a.code(c) })
}
