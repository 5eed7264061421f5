// Package meeting implements the two-step heuristic of §4.3 that groups
// observed media streams into Zoom meetings without any meeting
// identifier in the packets:
//
// Step 1 (duplicate detection): streams are keyed by IP 5-tuple and SSRC.
// When a new stream starts, an existing stream with the same SSRC but a
// different 5-tuple whose most recent RTP timestamp is within a small
// range of the new stream's first timestamp is the *same media* — either
// an SFU-forwarded copy traversing the monitor twice, or the same stream
// after an SFU↔P2P transition (Zoom's SFU does not rewrite timestamps or
// sequence numbers). All such streams share a unified stream ID.
//
// Step 2 (meeting assignment): stream records are assigned to meetings
// via three mappings — unified stream ID, client IP, and client IP+port.
// Any match joins the stream to that meeting; matches pointing at
// different meetings merge them; no match creates a meeting.
//
// The heuristic's documented limitations (passive participants are
// invisible; NAT can merge distinct meetings — Figure 9) hold here too
// and are exercised in the tests.
package meeting

import (
	"net/netip"
	"slices"
	"sort"
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/layers"
	"zoomlens/internal/rtp"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/zoom"
)

// UnifiedID identifies one logical media stream (a participant's audio,
// video, or screen share) across all its observed copies.
type UnifiedID int

// StreamObs is the per-packet observation fed to step 1.
type StreamObs struct {
	Time time.Time
	Flow layers.FiveTuple
	Key  zoom.StreamKey
	Seq  uint16
	TS   uint32
}

// streamState is the per-(flow, SSRC, type) record kept by the detector.
type streamState struct {
	unified   UnifiedID
	firstSeen time.Time
	lastSeen  time.Time
	firstTS   uint32
	lastTS    uint32
	id        flow.MediaStreamID
	// evicted marks states Evict has removed from the copy-linkage
	// index; the stream's next packet puts it back.
	evicted bool
	// mark is the record's entry in the detector's change log.
	mark statecodec.Mark
}

// Dedup performs step 1. It is deliberately streaming: each observation
// either lands in an existing stream or creates one, possibly linking it
// to an existing unified stream.
type Dedup struct {
	// streams holds one record per stream observed since the detector was
	// made: the meetings are grouped from them, so nothing evicts one. A
	// driver bounds them by replacing the detector (core: Rotate).
	streams map[flow.MediaStreamID]*streamState
	// bySSRC indexes streams for copy lookup. It is a function of the
	// records: each key lists every record of that key that ageing has
	// not unlinked (!evicted), in (first seen, id) order (see link). A
	// decoding pass rebuilds it rather than reading it.
	bySSRC map[zoom.StreamKey][]*streamState
	nextID UnifiedID
	// observed counts observations: the clock ageing runs on.
	observed uint64

	// log holds the records changed since the last checkpoint (see
	// state.go). Records are never deleted, so it holds no tombstone.
	log statecodec.ChangeLog[flow.MediaStreamID, streamState]
}

// The linkage window of §4.3.2 ("a small range"): a new stream is a copy
// of an existing one with the same SSRC and type on another 5-tuple when
// both distances below hold.
const (
	// tsWindow is the maximum RTP-timestamp distance between the existing
	// stream's most recent timestamp and the new stream's first: two
	// seconds of 90 kHz video.
	tsWindow = 2 * zoom.VideoClockRate
	// linkWindow is the maximum capture-clock gap between the existing
	// stream's last packet and the new stream's first.
	linkWindow = 10 * time.Second
	// ageEvery is how many observations pass between two sweeps that
	// unlink streams idle longer than linkWindow.
	ageEvery = 4096
)

// NewDedup returns an empty detector.
func NewDedup() *Dedup {
	return &Dedup{
		streams: make(map[flow.MediaStreamID]*streamState),
		bySSRC:  make(map[zoom.StreamKey][]*streamState),
	}
}

// Handle is a stream's shortcut to its record in one detector, kept by
// whoever feeds the detector on its own per-stream state so that a packet
// of a known stream costs no lookup. The zero Handle is empty. It names
// the detector that filled it, and no other detector follows it: a driver
// that replaces its detector (a new report window, a restore) need not
// chase the handles down. It is process-local and never serialized.
type Handle struct {
	d *Dedup
	s *streamState
}

// Observe ingests one media packet observation and returns the unified
// stream ID it belongs to.
func (d *Dedup) Observe(o StreamObs) UnifiedID { return d.ObserveBy(nil, &o) }

// ObserveBy is Observe for a caller that keeps a Handle for o's stream:
// the record is reached through h when this detector filled it, and found
// by key — filling h — otherwise. A nil h is Observe. The caller must hand
// the same stream the same handle; the handle is the detector's to write.
//
// Every ageEvery-th observation first unlinks the streams idle for more
// than linkWindow at its timestamp. matchExisting refuses exactly those
// candidates and a stream's next packet links it again where it stood,
// so while capture timestamps do not decrease ageing changes no result;
// it only keeps the index the size of what is live. The cadence counts
// observations and nothing else, so every engine fed the same
// observation sequence ages identically.
func (d *Dedup) ObserveBy(h *Handle, o *StreamObs) UnifiedID {
	if d.observed++; d.observed%ageEvery == 0 {
		d.Evict(o.Time.Add(-linkWindow))
	}
	var s *streamState
	if h != nil && h.d == d {
		s = h.s
	}
	if s == nil {
		k := flow.MediaStreamID{Flow: o.Flow, Key: o.Key}
		if s = d.streams[k]; s == nil {
			s = &streamState{firstSeen: o.Time, firstTS: o.TS, id: k, mark: d.log.NewMark()}
			// Step 1 linkage: same SSRC+type on a different 5-tuple with an
			// RTP timestamp in range.
			s.unified = d.matchExisting(o)
			if s.unified == 0 {
				d.nextID++
				s.unified = d.nextID
			}
			d.streams[k] = s
			d.link(s)
		}
		if h != nil {
			*h = Handle{d, s}
		}
	}
	s.lastSeen = o.Time
	s.lastTS = o.TS
	d.log.Touch(&s.mark, &s.id, s)
	if s.evicted {
		d.link(s)
	}
	return s.unified
}

func (d *Dedup) matchExisting(o *StreamObs) UnifiedID {
	best := UnifiedID(0)
	var bestGap int64 = 1 << 62
	for _, cand := range d.bySSRC[o.Key] {
		if cand.id.Flow == o.Flow {
			continue
		}
		if o.Time.Sub(cand.lastSeen) > linkWindow || cand.firstSeen.After(o.Time) {
			continue
		}
		gap := rtp.TSDiff(cand.lastTS, o.TS)
		if gap < 0 {
			gap = -gap
		}
		if gap <= tsWindow && gap < bestGap {
			bestGap = gap
			best = cand.unified
		}
	}
	return best
}

// StreamRecord is the step-2 input: one observed stream with its unified
// identity and the endpoint judged to be the client.
type StreamRecord struct {
	Unified UnifiedID
	Flow    layers.FiveTuple
	Key     zoom.StreamKey
	Start   time.Time
	End     time.Time
	// Client is the campus/client endpoint of the flow (not the SFU).
	Client netip.AddrPort
}

// Evict unlinks the streams idle since before cutoff from the
// copy-lookup index, which is all it walks. Their records stay (Records
// reproduces them); they can no longer be linked to new streams until
// their own next packet.
func (d *Dedup) Evict(cutoff time.Time) {
	for key, list := range d.bySSRC {
		kept := list[:0]
		for _, s := range list {
			if s.lastSeen.Before(cutoff) {
				s.evicted = true
				d.log.Touch(&s.mark, &s.id, s)
				continue
			}
			kept = append(kept, s)
		}
		if len(kept) == len(list) {
			continue
		}
		clear(list[len(kept):])
		if len(kept) == 0 {
			delete(d.bySSRC, key)
		} else {
			d.bySSRC[key] = kept
		}
	}
}

// link puts a new stream, or one that resumed after Evict, into the
// index after the last entry that sorts at or before it in (first seen,
// id) order: matchExisting breaks ties in favour of the earlier entry.
// Under a non-decreasing clock a new stream sorts last, so the scan
// stops at its first comparison.
func (d *Dedup) link(s *streamState) {
	list := d.bySSRC[s.id.Key]
	i := len(list)
	for i > 0 && linkOrder(list[i-1], s) > 0 {
		i--
	}
	d.bySSRC[s.id.Key] = slices.Insert(list, i, s)
	s.evicted = false
}

// linkOrder is the index's one order: first seen, then stream id.
func linkOrder(a, b *streamState) int {
	if c := a.firstSeen.Compare(b.firstSeen); c != 0 {
		return c
	}
	return flow.CompareStreamID(a.id, b.id)
}

// Len reports the number of retained stream records (for the
// observability occupancy gauges).
func (d *Dedup) Len() int { return len(d.streams) }

// RecordsBy returns one StreamRecord per observed (flow, SSRC, type)
// stream, ordered by start time, deriving the client endpoint with
// clientOf, which also receives the stream's key, so multi-protocol
// pipelines can apply per-protocol endpoint conventions (see
// ClientOfProto).
func (d *Dedup) RecordsBy(clientOf func(layers.FiveTuple, zoom.StreamKey) netip.AddrPort) []StreamRecord {
	out := make([]StreamRecord, 0, len(d.streams))
	for _, s := range d.streams {
		out = append(out, StreamRecord{
			Unified: s.unified,
			Flow:    s.id.Flow,
			Key:     s.id.Key,
			Start:   s.firstSeen,
			End:     s.lastSeen,
			Client:  clientOf(s.id.Flow, s.id.Key),
		})
	}
	names := layers.TupleNames{}
	order := make([]int, len(out))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		if ni, nj := names.Of(out[i].Flow), names.Of(out[j].Flow); ni != nj {
			return ni < nj
		}
		// Full tiebreak keeps the order deterministic when two streams of
		// one flow start on the same packet timestamp.
		if out[i].Key.SSRC != out[j].Key.SSRC {
			return out[i].Key.SSRC < out[j].Key.SSRC
		}
		return out[i].Key.Type < out[j].Key.Type
	})
	sorted := make([]StreamRecord, len(out))
	for pos, idx := range order {
		sorted[pos] = out[idx]
	}
	return sorted
}

// ClientOf returns a 5-tuple's client endpoint using the convention of
// the paper's capture: the side that is not a Zoom server. serverIs
// reports whether an address belongs to Zoom; for P2P flows (neither side
// a server) the source endpoint is used, so both directions of a P2P flow
// yield that flow's two participants.
func ClientOf(serverIs func(netip.Addr) bool) func(layers.FiveTuple) netip.AddrPort {
	return func(ft layers.FiveTuple) netip.AddrPort {
		switch {
		case serverIs(ft.Src) && !serverIs(ft.Dst):
			return netip.AddrPortFrom(ft.Dst, ft.DstPort)
		case serverIs(ft.Dst) && !serverIs(ft.Src):
			return netip.AddrPortFrom(ft.Src, ft.SrcPort)
		default:
			return netip.AddrPortFrom(ft.Src, ft.SrcPort)
		}
	}
}

// ClientOfProto derives client endpoints per protocol. Zoom streams
// (StreamKey.Proto zero) keep the ClientOf convention exactly — the side
// that is not a Zoom server — so Zoom-only results are unchanged. Other
// protocols publish no server prefixes; the only structural hint is
// campus membership, so the campus side of the flow is the client (the
// source endpoint when membership does not disambiguate, mirroring
// ClientOf's P2P fallback).
func ClientOfProto(zoomServerIs, campusIs func(netip.Addr) bool) func(layers.FiveTuple, zoom.StreamKey) netip.AddrPort {
	zoomOf := ClientOf(zoomServerIs)
	return func(ft layers.FiveTuple, key zoom.StreamKey) netip.AddrPort {
		if key.Proto == 0 {
			return zoomOf(ft)
		}
		switch {
		case campusIs(ft.Src) && !campusIs(ft.Dst):
			return netip.AddrPortFrom(ft.Src, ft.SrcPort)
		case campusIs(ft.Dst) && !campusIs(ft.Src):
			return netip.AddrPortFrom(ft.Dst, ft.DstPort)
		default:
			return netip.AddrPortFrom(ft.Src, ft.SrcPort)
		}
	}
}

// Meeting is one inferred meeting: the set of unified streams, client
// endpoints, and its observed time span.
type Meeting struct {
	ID      int
	Streams []UnifiedID
	Clients []netip.AddrPort
	Start   time.Time
	End     time.Time
	// Proto is the protocol-plugin ID every stream of this meeting
	// decoded under (rtcproto.ID numeric value). Meetings never span
	// applications: the grouper's client-endpoint maps are qualified by
	// protocol, so a host running Zoom and a standards-RTC app
	// concurrently yields two meetings.
	Proto uint8
}

// Participants estimates the number of active participants as the count
// of distinct client IP addresses (§4.3's accuracy caveats apply).
func (m *Meeting) Participants() int {
	ips := map[netip.Addr]struct{}{}
	for _, c := range m.Clients {
		ips[c.Addr()] = struct{}{}
	}
	return len(ips)
}

// Grouper performs step 2 over stream records.
//
// The client maps are qualified by protocol plugin: a campus host in a
// Zoom meeting and a WebRTC call at once must not have the two merged
// into one "meeting" just because the client IP matches. Unified IDs
// need no qualification — step 1 keys streams by zoom.StreamKey, which
// already embeds Proto, so a unified stream can never span protocols.
type Grouper struct {
	nextMeeting int
	byUnified   map[UnifiedID]int
	byClientIP  map[clientIPKey]int
	byClient    map[clientKey]int
	meetings    map[int]*meetingState
}

type clientKey struct {
	ep    netip.AddrPort
	proto uint8
}

type clientIPKey struct {
	addr  netip.Addr
	proto uint8
}

type meetingState struct {
	id      int
	proto   uint8
	streams map[UnifiedID]struct{}
	clients map[netip.AddrPort]struct{}
	start   time.Time
	end     time.Time
}

// NewGrouper returns an empty grouper.
func NewGrouper() *Grouper {
	return &Grouper{
		byUnified:  make(map[UnifiedID]int),
		byClientIP: make(map[clientIPKey]int),
		byClient:   make(map[clientKey]int),
		meetings:   make(map[int]*meetingState),
	}
}

// Add assigns one stream record to a meeting, merging meetings when the
// record's keys match more than one, and returns the meeting ID.
func (g *Grouper) Add(r StreamRecord) int {
	matches := map[int]struct{}{}
	if id, ok := g.byUnified[r.Unified]; ok {
		matches[id] = struct{}{}
	}
	if id, ok := g.byClient[clientKey{r.Client, r.Key.Proto}]; ok {
		matches[id] = struct{}{}
	}
	if id, ok := g.byClientIP[clientIPKey{r.Client.Addr(), r.Key.Proto}]; ok {
		matches[id] = struct{}{}
	}
	var target *meetingState
	switch len(matches) {
	case 0:
		g.nextMeeting++
		target = &meetingState{
			id:      g.nextMeeting,
			proto:   r.Key.Proto,
			streams: make(map[UnifiedID]struct{}),
			clients: make(map[netip.AddrPort]struct{}),
			start:   r.Start,
			end:     r.End,
		}
		g.meetings[target.id] = target
	default:
		ids := make([]int, 0, len(matches))
		for id := range matches {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		target = g.meetings[ids[0]]
		for _, id := range ids[1:] {
			g.merge(target, g.meetings[id])
		}
	}
	target.streams[r.Unified] = struct{}{}
	target.clients[r.Client] = struct{}{}
	if r.Start.Before(target.start) {
		target.start = r.Start
	}
	if r.End.After(target.end) {
		target.end = r.End
	}
	g.byUnified[r.Unified] = target.id
	g.byClient[clientKey{r.Client, r.Key.Proto}] = target.id
	g.byClientIP[clientIPKey{r.Client.Addr(), r.Key.Proto}] = target.id
	return target.id
}

func (g *Grouper) merge(dst, src *meetingState) {
	if src == dst || src == nil {
		return
	}
	for s := range src.streams {
		dst.streams[s] = struct{}{}
		g.byUnified[s] = dst.id
	}
	for c := range src.clients {
		dst.clients[c] = struct{}{}
		g.byClient[clientKey{c, src.proto}] = dst.id
		g.byClientIP[clientIPKey{c.Addr(), src.proto}] = dst.id
	}
	if src.start.Before(dst.start) {
		dst.start = src.start
	}
	if src.end.After(dst.end) {
		dst.end = src.end
	}
	delete(g.meetings, src.id)
}

// Group runs step 2 over a full set of records and returns the meetings
// ordered by start time.
func Group(records []StreamRecord) []Meeting {
	g := NewGrouper()
	for _, r := range records {
		g.Add(r)
	}
	return g.Meetings()
}

// Meetings returns the current meetings, ordered by start time.
func (g *Grouper) Meetings() []Meeting {
	out := make([]Meeting, 0, len(g.meetings))
	for _, m := range g.meetings {
		mm := Meeting{ID: m.id, Start: m.start, End: m.end, Proto: m.proto}
		for s := range m.streams {
			mm.Streams = append(mm.Streams, s)
		}
		sort.Slice(mm.Streams, func(i, j int) bool { return mm.Streams[i] < mm.Streams[j] })
		for c := range m.clients {
			mm.Clients = append(mm.Clients, c)
		}
		sort.Slice(mm.Clients, func(i, j int) bool {
			if c := mm.Clients[i].Addr().Compare(mm.Clients[j].Addr()); c != 0 {
				return c < 0
			}
			return mm.Clients[i].Port() < mm.Clients[j].Port()
		})
		out = append(out, mm)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}
