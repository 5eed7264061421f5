// Package flow tracks the aggregation levels of Figure 6 in the paper:
// UDP flows (IP 5-tuples) carry media streams (identified by SSRC and
// Zoom media type), each of which carries up to three substreams
// (identified by RTP payload type), which in turn carry frames
// (identified by RTP timestamp) split across packets (identified by RTP
// sequence number).
//
// The Table keeps per-flow and per-stream accounting used by the Table
// 2/3/6 reproductions and hands structured records to downstream
// consumers (meeting grouping, metrics).
package flow

import (
	"slices"
	"sort"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/zoom"
)

// Record is one parsed Zoom packet in its flow context. It is the unit
// handed to metric engines and the meeting-grouping heuristic.
type Record struct {
	Time time.Time
	Flow layers.FiveTuple
	// WireLen is the full frame length on the wire, for overall bit
	// rates (§5.1).
	WireLen int
	// UDPPayloadLen is the Zoom payload length.
	UDPPayloadLen int
	// Proto tags the protocol plugin (rtcproto.ID) whose decoder
	// produced Z; it becomes part of every StreamKey the record creates.
	Proto uint8
	// Z is the parsed media packet, normalized to the Zoom container by
	// the decoding plugin.
	Z zoom.Packet
}

// MediaStreamID identifies a media stream at the vantage point: the same
// SSRC+type can legitimately appear on several flows (stream copies
// forwarded by the SFU, or an SFU→P2P transition), which step 1 of the
// grouping heuristic detects (§4.3.2).
type MediaStreamID struct {
	Flow layers.FiveTuple
	Key  zoom.StreamKey
}

// SubstreamStats accumulates per-payload-type counters within a stream.
type SubstreamStats struct {
	PayloadType uint8
	Packets     uint64
	Bytes       uint64 // RTP payload bytes
}

// EncapCount is a flow's packet count for one media encapsulation type.
type EncapCount struct {
	Type    zoom.MediaType
	Packets uint64
}

// StreamStats is the per-media-stream accounting record.
type StreamStats struct {
	ID        MediaStreamID
	FirstSeen time.Time
	LastSeen  time.Time
	Packets   uint64
	WireBytes uint64
	// Substreams is ascending by payload type: real streams carry at most
	// three, so the packet path scans it.
	Substreams []SubstreamStats

	// Owner is the table's driver's: whatever it keeps per stream, which
	// lives here alone, so a packet the table has resolved to this record
	// needs no second lookup. The table never reads it; a decoding pass
	// and Absorb keep it.
	Owner any

	// mark is the record's entry in the table's stream change log.
	mark statecodec.Mark
}

// smallList is the capacity a record's substream or encapsulation-type
// list starts with: what real traffic fills, in one allocation instead of
// one per doubling.
const smallList = 4

// Substream returns the counters of payload type pt, nil if the stream
// has carried none. The pointer is good until the stream's next packet.
func (s *StreamStats) Substream(pt uint8) *SubstreamStats {
	for i := range s.Substreams {
		if s.Substreams[i].PayloadType == pt {
			return &s.Substreams[i]
		}
	}
	return nil
}

// addSubstream inserts payload type pt, which the stream does not hold,
// in order.
func (s *StreamStats) addSubstream(pt uint8) *SubstreamStats {
	i := 0
	for i < len(s.Substreams) && s.Substreams[i].PayloadType < pt {
		i++
	}
	if s.Substreams == nil {
		s.Substreams = make([]SubstreamStats, 0, smallList)
	}
	s.Substreams = slices.Insert(s.Substreams, i, SubstreamStats{PayloadType: pt})
	return &s.Substreams[i]
}

// FlowStats is the per-5-tuple accounting record, and the root of
// Figure 6's hierarchy: the flow owns its media streams, so the one
// five-tuple lookup a packet pays reaches everything below it.
type FlowStats struct {
	Flow        layers.FiveTuple
	FirstSeen   time.Time
	LastSeen    time.Time
	Packets     uint64
	WireBytes   uint64
	ServerBased uint64 // packets with an SFU encapsulation
	P2P         uint64
	// ByEncapType counts packets per media encapsulation type value
	// (Table 2), ascending by type: a handful of types pass the decoders.
	ByEncapType []EncapCount

	// streams indexes the flow's media streams by StreamKey.Prefix. A map,
	// not a list: a hostile sender can cycle SSRCs on one five-tuple, and
	// the 8-byte key keeps the lookup on the runtime's fast path.
	streams map[uint64]*StreamStats

	// mark is the record's entry in the table's flow change log.
	mark statecodec.Mark
}

// encap returns the flow's count for encapsulation type mt, inserting it
// in order if the flow has none. The pointer is good until the next call.
func (f *FlowStats) encap(mt zoom.MediaType) *EncapCount {
	i := 0
	for i < len(f.ByEncapType) && f.ByEncapType[i].Type < mt {
		i++
	}
	if i == len(f.ByEncapType) || f.ByEncapType[i].Type != mt {
		if f.ByEncapType == nil {
			f.ByEncapType = make([]EncapCount, 0, smallList)
		}
		f.ByEncapType = slices.Insert(f.ByEncapType, i, EncapCount{Type: mt})
	}
	return &f.ByEncapType[i]
}

// Limits bounds the table's hot maps for long-lived deployments: a
// production tap must keep memory flat under a flood of garbage or
// hostile five-tuples. Zero values mean unlimited (the default, matching
// one-shot trace analysis).
type Limits struct {
	// MaxFlows caps the number of live flow entries. A packet for a new
	// flow arriving at the cap is counted (RejectedFlowPackets) but
	// creates no state; idle-TTL eviction frees room over time.
	MaxFlows int
	// MaxStreams caps live media-stream entries the same way.
	MaxStreams int
	// MaxSubstreams caps substream entries per stream (the RTP payload
	// type byte offers 128 values to an attacker; real Zoom streams use
	// at most three).
	MaxSubstreams int
}

// EvictionStats reports what bounded-state enforcement did, so capped
// runs surface what was aged out or turned away instead of dropping it
// silently.
type EvictionStats struct {
	// EvictedFlows and EvictedStreams count entries removed by EvictIdle.
	// Their packet/byte contributions remain in Totals and in the Table
	// 2/3 share aggregates.
	EvictedFlows   uint64
	EvictedStreams uint64
	// RejectedFlowPackets counts packets that would have created a flow
	// beyond MaxFlows; RejectedStreamPackets and RejectedSubstreamPackets
	// likewise for streams and substreams.
	RejectedFlowPackets      uint64
	RejectedStreamPackets    uint64
	RejectedSubstreamPackets uint64
}

type ptKey struct {
	mt zoom.MediaType
	pt uint8
}

type shareAgg struct{ pkts, bytes uint64 }

// Table demultiplexes records into flows and streams.
type Table struct {
	flows map[layers.FiveTuple]*FlowStats
	// streams counts the stream records the flows hold between them.
	streams int

	// Totals for Table 2/6.
	totalPackets uint64
	totalBytes   uint64

	limits Limits
	ev     EvictionStats
	// evictedEncap and evictedPT preserve the Table 2/3 contributions of
	// evicted entries so the final report counts them.
	evictedEncap map[zoom.MediaType]*shareAgg
	evictedPT    map[ptKey]*shareAgg

	// Delta-checkpoint tracking (see state.go): what changed since the
	// last checkpoint, and what of it was evicted.
	flowLog   statecodec.ChangeLog[layers.FiveTuple, FlowStats]
	streamLog statecodec.ChangeLog[MediaStreamID, StreamStats]
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{flows: make(map[layers.FiveTuple]*FlowStats)}
}

// SetLimits installs state bounds; it can be called once, before any
// record is observed.
func (t *Table) SetLimits(l Limits) { t.limits = l }

// Evictions returns the bounded-state counters.
func (t *Table) Evictions() EvictionStats { return t.ev }

// Observe ingests one record, updating flow and stream state. It returns
// the stream's stats entry (nil for RTCP-only bookkeeping is never nil:
// RTCP packets are attributed to the stream of their first referenced
// SSRC when one exists).
func (t *Table) Observe(r *Record) *StreamStats {
	t.totalPackets++
	t.totalBytes += uint64(r.WireLen)

	f := t.flows[r.Flow]
	if f == nil {
		if t.limits.MaxFlows > 0 && len(t.flows) >= t.limits.MaxFlows {
			t.ev.RejectedFlowPackets++
			return nil
		}
		f = &FlowStats{Flow: r.Flow, FirstSeen: r.Time, mark: t.flowLog.NewMark()}
		t.flows[r.Flow] = f
	}
	f.LastSeen = r.Time
	t.flowLog.Touch(&f.mark, &f.Flow, f)
	f.Packets++
	f.WireBytes += uint64(r.WireLen)
	f.encap(r.Z.Media.Type).Packets++
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
		if s := f.findStreamBySSRC(ssrc, r.Proto); s != nil {
			s.LastSeen = r.Time
			t.streamLog.Touch(&s.mark, &s.ID, s)
			return s
		}
		return nil
	default:
		return nil
	}

	s := f.streams[key.Prefix()]
	if s == nil {
		if t.limits.MaxStreams > 0 && t.streams >= t.limits.MaxStreams {
			t.ev.RejectedStreamPackets++
			return nil
		}
		s = &StreamStats{ID: MediaStreamID{Flow: r.Flow, Key: key}, FirstSeen: r.Time, mark: t.streamLog.NewMark()}
		f.addStream(s)
		t.streams++
	}
	s.LastSeen = r.Time
	t.streamLog.Touch(&s.mark, &s.ID, s)
	s.Packets++
	s.WireBytes += uint64(r.WireLen)
	sub := s.Substream(r.Z.RTP.PayloadType)
	if sub == nil {
		if t.limits.MaxSubstreams > 0 && len(s.Substreams) >= t.limits.MaxSubstreams {
			t.ev.RejectedSubstreamPackets++
			return s
		}
		sub = s.addSubstream(r.Z.RTP.PayloadType)
	}
	sub.Packets++
	sub.Bytes += uint64(len(r.Z.RTP.Payload))
	return s
}

// addStream puts s, which the flow does not hold, into the flow's index.
func (f *FlowStats) addStream(s *StreamStats) {
	if f.streams == nil {
		f.streams = make(map[uint64]*StreamStats)
	}
	f.streams[s.ID.Key.Prefix()] = s
}

// EvictIdle removes every stream whose last packet is not after cutoff,
// and every such flow that is left holding no stream, folding their Table
// 2/3 contributions into hidden aggregates so EncapShares,
// PayloadTypeShares, and Totals still count them. It returns the number of
// flows and streams evicted. A flow holding a live stream is never
// evicted, whatever its own LastSeen says: that is the time of the flow's
// latest packet in capture order, which under a backward capture clock can
// be earlier than one of its streams'.
func (t *Table) EvictIdle(cutoff time.Time) (flows, streams int) {
	return t.EvictIdleFunc(cutoff, nil)
}

// EvictIdleFunc is EvictIdle handing each evicted stream record to
// evicted, if set, in no particular order: a driver that keeps state per
// stream finds its victims in the same walk, with no lookup of its own.
func (t *Table) EvictIdleFunc(cutoff time.Time, evicted func(*StreamStats)) (flows, streams int) {
	for k, f := range t.flows {
		for pk, s := range f.streams {
			if s.LastSeen.After(cutoff) {
				continue
			}
			if evicted != nil {
				evicted(s)
			}
			t.foldStream(s)
			delete(f.streams, pk)
			t.streams--
			t.streamLog.Drop(&s.mark, s.ID)
			t.ev.EvictedStreams++
			streams++
		}
		if f.LastSeen.After(cutoff) || len(f.streams) > 0 {
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

func (t *Table) evictedEncapAgg(mt zoom.MediaType) *shareAgg {
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

func (t *Table) foldStream(s *StreamStats) {
	a := t.evictedEncapAgg(s.ID.Key.Type)
	a.pkts += s.Packets
	a.bytes += s.WireBytes
	if t.evictedPT == nil {
		t.evictedPT = make(map[ptKey]*shareAgg)
	}
	for _, sub := range s.Substreams {
		k := ptKey{s.ID.Key.Type, sub.PayloadType}
		p := t.evictedPT[k]
		if p == nil {
			p = &shareAgg{}
			t.evictedPT[k] = p
		}
		p.pkts += sub.Packets
		p.bytes += sub.Bytes
	}
}

func (t *Table) foldFlow(f *FlowStats) {
	// Streams carry their own packet counts; a flow's independent Table 2
	// contribution is its RTCP packets (EncapShares counts those from
	// flows, not streams).
	for _, e := range f.ByEncapType {
		if e.Type.IsRTCP() {
			t.evictedEncapAgg(e.Type).pkts += e.Packets
		}
	}
}

// findStreamBySSRC returns the flow's stream with the SSRC, video before
// audio before screen share.
func (f *FlowStats) findStreamBySSRC(ssrc uint32, proto uint8) *StreamStats {
	for _, mt := range [...]zoom.MediaType{zoom.TypeVideo, zoom.TypeAudio, zoom.TypeScreenShare} {
		if s := f.streams[zoom.StreamKey{SSRC: ssrc, Type: mt, Proto: proto}.Prefix()]; s != nil {
			return s
		}
	}
	return nil
}

// EachStream calls fn for every stream record, in no particular order.
func (t *Table) EachStream(fn func(*StreamStats)) {
	for _, f := range t.flows {
		for _, s := range f.streams {
			fn(s)
		}
	}
}

// Flows returns all flow records, ordered by first-seen time, ties broken
// by the flow's string.
func (t *Table) Flows() []*FlowStats {
	out := make([]*FlowStats, 0, len(t.flows))
	for _, f := range t.flows {
		out = append(out, f)
	}
	names := layers.TupleNames{}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].FirstSeen.Equal(out[j].FirstSeen) {
			return out[i].FirstSeen.Before(out[j].FirstSeen)
		}
		return names.Of(out[i].Flow) < names.Of(out[j].Flow)
	})
	return out
}

// Absorb merges src's flows, streams, and totals into t. A flow only src
// holds is adopted with its streams, record and index, Owner included, so
// src is not to be fed afterwards; a stream both tables hold takes src's
// Owner, if it has one. The sharded parallel
// analyzer calls it at merge time; shard tables are keyed by disjoint
// five-tuple sets there, but overlapping keys are combined correctly
// anyway (counters summed, first/last seen widened) so Absorb is safe for
// general table union.
func (t *Table) Absorb(src *Table) {
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
		// An adopted record is on none of this table's lists.
		f.mark = statecodec.Mark{}
		for _, s := range f.streams {
			s.mark = statecodec.Mark{}
		}
		dst := t.flows[k]
		if dst == nil {
			t.flows[k] = f
			t.streams += len(f.streams)
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
		for _, e := range f.ByEncapType {
			dst.encap(e.Type).Packets += e.Packets
		}
		for pk, s := range f.streams {
			if d := dst.streams[pk]; d != nil {
				d.absorb(s)
			} else {
				dst.addStream(s)
				t.streams++
			}
		}
	}
}

// absorb adds s, another table's record of the same stream, into dst.
func (dst *StreamStats) absorb(s *StreamStats) {
	if s.Owner != nil {
		dst.Owner = s.Owner
	}
	if s.FirstSeen.Before(dst.FirstSeen) {
		dst.FirstSeen = s.FirstSeen
	}
	if s.LastSeen.After(dst.LastSeen) {
		dst.LastSeen = s.LastSeen
	}
	dst.Packets += s.Packets
	dst.WireBytes += s.WireBytes
	for _, sub := range s.Substreams {
		d := dst.Substream(sub.PayloadType)
		if d == nil {
			d = dst.addSubstream(sub.PayloadType)
		}
		d.Packets += sub.Packets
		d.Bytes += sub.Bytes
	}
}

// Stream looks up one stream record: the flow, then the flow's index.
func (t *Table) Stream(id MediaStreamID) (*StreamStats, bool) {
	s := t.flows[id.Flow].stream(id.Key)
	return s, s != nil
}

// stream returns the flow's stream with key k; a nil flow holds none.
func (f *FlowStats) stream(k zoom.StreamKey) *StreamStats {
	if f == nil {
		return nil
	}
	return f.streams[k.Prefix()]
}

// Totals summarizes the table for the Table 6 reproduction.
type Totals struct {
	Packets uint64
	Bytes   uint64
	Flows   int
	Streams int
}

// Totals returns the capture summary counters.
func (t *Table) Totals() Totals {
	return Totals{
		Packets: t.totalPackets,
		Bytes:   t.totalBytes,
		Flows:   len(t.flows),
		Streams: t.streams,
	}
}

// EncapTypeShare is one row of the Table 2 reproduction.
type EncapTypeShare struct {
	Type       zoom.MediaType
	Packets    uint64
	Bytes      uint64
	PacketsPct float64
	BytesPct   float64
}

// EncapShares aggregates packet and byte shares by media encapsulation
// type across all flows (Table 2). totalPackets/totalBytes are the
// denominators; pass the capture totals including undecodable packets to
// match the paper's accounting.
func (t *Table) EncapShares(totalPackets, totalBytes uint64) []EncapTypeShare {
	type agg struct{ pkts, bytes uint64 }
	byType := map[zoom.MediaType]*agg{}
	t.EachStream(func(s *StreamStats) {
		a := byType[s.ID.Key.Type]
		if a == nil {
			a = &agg{}
			byType[s.ID.Key.Type] = a
		}
		a.pkts += s.Packets
		a.bytes += s.WireBytes
	})
	// RTCP packets are not in stream records' packet counts; count them
	// from flows.
	for _, f := range t.flows {
		for _, e := range f.ByEncapType {
			if !e.Type.IsRTCP() {
				continue
			}
			a := byType[e.Type]
			if a == nil {
				a = &agg{}
				byType[e.Type] = a
			}
			a.pkts += e.Packets
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

// PayloadTypeShare is one row of the Table 3 reproduction.
type PayloadTypeShare struct {
	Media       zoom.MediaType
	PayloadType uint8
	Substream   zoom.Substream
	Packets     uint64
	Bytes       uint64
	PacketsPct  float64
	BytesPct    float64
}

// PayloadTypeShares aggregates substream shares by (media type, RTP PT)
// across all streams (Table 3).
func (t *Table) PayloadTypeShares(totalPackets, totalBytes uint64) []PayloadTypeShare {
	type agg struct{ pkts, bytes uint64 }
	byKey := map[ptKey]*agg{}
	t.EachStream(func(s *StreamStats) {
		for _, sub := range s.Substreams {
			k := ptKey{s.ID.Key.Type, sub.PayloadType}
			a := byKey[k]
			if a == nil {
				a = &agg{}
				byKey[k] = a
			}
			a.pkts += sub.Packets
			a.bytes += sub.Bytes
		}
	})
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
