package core

import (
	"cmp"
	"net/netip"
	"slices"
	"sort"
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/layers"
	"zoomlens/internal/meeting"
	"zoomlens/internal/metrics"
	"zoomlens/internal/rtcproto"
	"zoomlens/internal/zoom"
)

// This file answers the question the grouping heuristic exists for
// (§4.3): "judge whether only a single participant is affected by poor
// meeting performance or if the meeting in general suffers from
// problems" — by rolling stream metrics up to participants and
// meetings.

// ParticipantReport summarizes one client endpoint's streams within a
// meeting.
type ParticipantReport struct {
	// Client is the participant's IP address; with per-media-type UDP
	// flows one participant spans several ports, so ports are not part
	// of the identity (matching Meeting.Participants).
	Client netip.Addr
	// Streams is the number of stream records attributed to the client.
	Streams int
	// VideoFPSMean is the mean delivered video frame rate across the
	// participant's video streams (0 if none).
	VideoFPSMean float64
	// JitterP50MS is the worst per-stream median frame-level jitter
	// among the participant's video streams: a participant with one bad
	// path is affected even if their other streams are clean.
	JitterP50MS float64
	// LossRate is the worst per-stream loss estimate.
	LossRate float64
	// RetransmissionRate is the worst per-stream duplicate rate.
	RetransmissionRate float64
	// Degraded flags a participant whose metrics are materially worse
	// than the meeting median.
	Degraded bool

	videoStreams int // uplink video streams folded into VideoFPSMean
}

// MeetingReport is the per-meeting roll-up.
type MeetingReport struct {
	Meeting meeting.Meeting
	// App names the protocol plugin every stream of the meeting decoded
	// under ("zoom", "webrtc"): meetings never span applications.
	App          string
	Participants []ParticipantReport
	// MeetingWideDegradation is set when most participants are degraded
	// (a shared cause: the meeting "in general suffers"); if only some
	// are, the cause is likely on their individual paths.
	MeetingWideDegradation bool
	// MeanRTT is the mean monitor↔SFU RTT from stream copies belonging
	// to this meeting (0 when no copies were observed).
	MeanRTT time.Duration
}

// rollup is the §4.3 grouping behind every report: the Dedup's stream
// records in their deterministic order, the meetings grouped from them,
// and each unified stream's meeting as an index into meetings.
type rollup struct {
	records   []meeting.StreamRecord
	meetings  []meeting.Meeting
	meetingOf map[meeting.UnifiedID]int
}

// rollup groups everything reconciled so far.
func (p *pipeline) rollup() rollup {
	ru := rollup{records: p.Dedup.RecordsBy(p.clientOf())}
	ru.meetings = meeting.Group(ru.records)
	ru.meetingOf = make(map[meeting.UnifiedID]int, len(ru.records))
	for i, m := range ru.meetings {
		for _, u := range m.Streams {
			ru.meetingOf[u] = i
		}
	}
	return ru
}

// StreamSegment is one metric engine's share of a stream: the packets of
// one stream record (flow + SSRC + type) between two idle evictions.
// Without Config.FlowTTL every stream is one live segment; with it, a
// stream that idles out and resumes has several under one ID — counters
// sum over them, loss, jitter and frame assembly restart in each.
type StreamSegment struct {
	ID      flow.MediaStreamID
	Metrics *metrics.StreamMetrics
	// FirstSeen and LastSeen bound the segment's packets: its flow-table
	// record's, kept in the archive entry once idle eviction takes the
	// record, so archiving a segment changes neither.
	FirstSeen, LastSeen time.Time
	// Archived marks a segment finalized and moved out of the live map by
	// idle eviction.
	Archived bool
}

// Streams returns every stream segment the engine holds, archived and
// live, ordered by SSRC, media type and flow; an ID's segments are
// adjacent, oldest first. Eviction moves a stream between containers,
// never out of this list: it holds every segment the window admitted.
// Call from the ingest goroutine: a parallel engine quiesces first.
func (p *pipeline) Streams() []StreamSegment {
	p.quiesce()
	var out []StreamSegment
	for _, sh := range p.shards {
		for _, f := range sh.Finished {
			out = append(out, StreamSegment{ID: f.ID, Metrics: f.Metrics, FirstSeen: f.FirstSeen, LastSeen: f.LastSeen, Archived: true})
		}
		for id, sm := range sh.StreamMetrics {
			st, _ := sh.Flows.Stream(id) // every engine listed has its record
			out = append(out, StreamSegment{ID: id, Metrics: sm, FirstSeen: st.FirstSeen, LastSeen: st.LastSeen})
		}
	}
	// A stream's packets all reach one shard, whose archive is in idle-out
	// order and was listed before its live map: a stable sort keeps each
	// ID's segments oldest first.
	names := layers.TupleNames{}
	slices.SortStableFunc(out, func(a, b StreamSegment) int {
		if c := cmp.Or(cmp.Compare(a.ID.Key.SSRC, b.ID.Key.SSRC), cmp.Compare(a.ID.Key.Type, b.ID.Key.Type)); c != 0 {
			return c
		}
		return cmp.Compare(names.Of(a.ID.Flow), names.Of(b.ID.Flow))
	})
	return out
}

// streamsByID indexes Streams for the by-ID consumers.
func (p *pipeline) streamsByID() map[flow.MediaStreamID][]StreamSegment {
	segs := p.Streams()
	byID := make(map[flow.MediaStreamID][]StreamSegment, len(segs))
	for _, s := range segs {
		byID[s.ID] = append(byID[s.ID], s)
	}
	return byID
}

// MeetingReports computes roll-ups for every inferred meeting.
func (a *Analyzer) MeetingReports() []MeetingReport {
	ru := a.rollup()
	byID := a.streamsByID()
	out := make([]MeetingReport, len(ru.meetings))
	perClient := make([]map[netip.Addr]*ParticipantReport, len(ru.meetings))
	for i, m := range ru.meetings {
		out[i] = MeetingReport{Meeting: m, App: rtcproto.NameOf(m.Proto)}
		perClient[i] = map[netip.Addr]*ParticipantReport{}
	}

	// Records fold into their participant by unified stream, then in
	// record order.
	slices.SortStableFunc(ru.records, func(x, y meeting.StreamRecord) int { return cmp.Compare(x.Unified, y.Unified) })
	for _, rec := range ru.records {
		clients := perClient[ru.meetingOf[rec.Unified]]
		cl := rec.Client.Addr()
		pr := clients[cl]
		if pr == nil {
			pr = &ParticipantReport{Client: cl}
			clients[cl] = pr
		}
		pr.Streams++
		// Quality attributes only from the participant's uplink
		// records: an SFU-forwarded copy inherits the *sender's*
		// impairments, so charging it to the receiver would smear
		// one bad path across the whole meeting.
		if rec.Flow.Src == cl {
			for _, seg := range byID[flow.MediaStreamID{Flow: rec.Flow, Key: rec.Key}] {
				accumulateStream(seg.Metrics, pr)
			}
		}
	}

	// Monitor↔SFU RTT samples carry their unified stream.
	rttN := make([]int, len(out))
	for _, s := range a.Copies.Samples {
		if mi, ok := ru.meetingOf[s.Unified]; ok {
			out[mi].MeanRTT += s.RTT
			rttN[mi]++
		}
	}

	for i := range out {
		rep := &out[i]
		if rttN[i] > 0 {
			rep.MeanRTT /= time.Duration(rttN[i])
		}
		for _, pr := range perClient[i] {
			rep.Participants = append(rep.Participants, *pr)
		}
		slices.SortFunc(rep.Participants, func(x, y ParticipantReport) int { return x.Client.Compare(y.Client) })
		markDegraded(rep.Participants)
		degraded := 0
		for _, p := range rep.Participants {
			if p.Degraded {
				degraded++
			}
		}
		rep.MeetingWideDegradation = len(rep.Participants) > 1 && degraded*2 > len(rep.Participants)
	}
	return out
}

// accumulateStream folds one segment of an uplink stream record into a
// participant report (means weighted by segment count are adequate at
// this granularity).
func accumulateStream(sm *metrics.StreamMetrics, pr *ParticipantReport) {
	loss := sm.LossStats()
	if loss.ExpectedSpan > 0 {
		pr.LossRate = max(pr.LossRate, float64(loss.EstimatedLost)/float64(loss.ExpectedSpan))
	}
	if loss.Received > 0 {
		pr.RetransmissionRate = max(pr.RetransmissionRate, float64(loss.Duplicates)/float64(loss.Received))
	}
	if sm.MediaType == zoom.TypeVideo {
		if frames := sm.Frames(); len(frames) > 0 {
			n := len(frames)
			var sum float64
			for _, f := range frames[n/2:] {
				sum += float64(f.Rate)
			}
			pr.videoStreams++
			pr.VideoFPSMean = combineMean(pr.VideoFPSMean, sum/float64(n-n/2), pr.videoStreams)
		}
		if n := len(sm.JitterMS.Samples); n > 0 {
			vals := make([]float64, n)
			for i, s := range sm.JitterMS.Samples {
				vals[i] = s.Value
			}
			sort.Float64s(vals)
			pr.JitterP50MS = max(pr.JitterP50MS, vals[n/2])
		}
	}
}

func combineMean(prev, next float64, prevN int) float64 {
	if prevN <= 1 {
		return next
	}
	return (prev*float64(prevN-1) + next) / float64(prevN)
}

// markDegraded flags participants whose jitter or loss is well above
// the meeting median (at least 3× and above absolute floors).
func markDegraded(ps []ParticipantReport) {
	if len(ps) == 0 {
		return
	}
	jit := make([]float64, 0, len(ps))
	loss := make([]float64, 0, len(ps))
	for _, p := range ps {
		jit = append(jit, p.JitterP50MS)
		loss = append(loss, p.LossRate)
	}
	sort.Float64s(jit)
	sort.Float64s(loss)
	medJ, medL := jit[len(jit)/2], loss[len(loss)/2]
	for i := range ps {
		p := &ps[i]
		badJitter := p.JitterP50MS > 20 && p.JitterP50MS > 3*medJ
		badLoss := p.LossRate > 0.02 && p.LossRate > 3*medL
		// When the whole meeting is bad, medians are bad too: absolute
		// floors alone flag everyone.
		wholeBadJ := p.JitterP50MS > 40
		wholeBadL := p.LossRate > 0.05
		p.Degraded = badJitter || badLoss || wholeBadJ || wholeBadL
	}
}
