package core

import (
	"net/netip"
	"sort"
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/meeting"
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

// MeetingReports computes roll-ups for every inferred meeting.
func (a *Analyzer) MeetingReports() []MeetingReport {
	records := a.Dedup.RecordsBy(a.clientOf())
	meetings := meeting.Group(records)

	// Index stream records by unified ID for meeting membership, and
	// map each stream record to its metrics.
	type obsStream struct {
		rec meeting.StreamRecord
	}
	byUnified := map[meeting.UnifiedID][]obsStream{}
	for _, r := range records {
		byUnified[r.Unified] = append(byUnified[r.Unified], obsStream{rec: r})
	}

	// RTT samples per unified stream.
	rttByUnified := map[meeting.UnifiedID][]time.Duration{}
	for _, s := range a.Copies.Samples {
		rttByUnified[s.Unified] = append(rttByUnified[s.Unified], s.RTT)
	}

	var out []MeetingReport
	for _, m := range meetings {
		rep := MeetingReport{Meeting: m, App: rtcproto.NameOf(m.Proto)}
		perClient := map[netip.Addr]*ParticipantReport{}
		var rttSum time.Duration
		var rttN int
		for _, uid := range m.Streams {
			for _, rtt := range rttByUnified[uid] {
				rttSum += rtt
				rttN++
			}
			for _, os := range byUnified[uid] {
				cl := os.rec.Client.Addr()
				pr := perClient[cl]
				if pr == nil {
					pr = &ParticipantReport{Client: cl}
					perClient[cl] = pr
				}
				pr.Streams++
				// Quality attributes only from the participant's uplink
				// records: an SFU-forwarded copy inherits the *sender's*
				// impairments, so charging it to the receiver would smear
				// one bad path across the whole meeting.
				if os.rec.Flow.Src == cl {
					a.accumulateStream(os.rec, pr)
				}
			}
		}
		if rttN > 0 {
			rep.MeanRTT = rttSum / time.Duration(rttN)
		}
		for _, pr := range perClient {
			rep.Participants = append(rep.Participants, *pr)
		}
		sort.Slice(rep.Participants, func(i, j int) bool {
			return rep.Participants[i].Client.Compare(rep.Participants[j].Client) < 0
		})
		markDegraded(rep.Participants)
		degraded := 0
		for _, p := range rep.Participants {
			if p.Degraded {
				degraded++
			}
		}
		rep.MeetingWideDegradation = len(rep.Participants) > 1 && degraded*2 > len(rep.Participants)
		out = append(out, rep)
	}
	return out
}

// accumulateStream folds one stream record's metrics into a participant
// report (means weighted by stream count are adequate at this
// granularity).
func (a *Analyzer) accumulateStream(rec meeting.StreamRecord, pr *ParticipantReport) {
	id := streamIDFor(rec)
	sm, ok := a.StreamMetrics[id]
	if !ok {
		return
	}
	loss := sm.LossStats()
	if loss.ExpectedSpan > 0 {
		pr.LossRate = max64(pr.LossRate, float64(loss.EstimatedLost)/float64(loss.ExpectedSpan))
	}
	if loss.Received > 0 {
		pr.RetransmissionRate = max64(pr.RetransmissionRate, float64(loss.Duplicates)/float64(loss.Received))
	}
	if rec.Key.Type == zoom.TypeVideo {
		if n := len(sm.FrameRate.Samples); n > 0 {
			var sum float64
			for _, s := range sm.FrameRate.Samples[n/2:] {
				sum += s.Value
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
			pr.JitterP50MS = max64(pr.JitterP50MS, vals[n/2])
		}
	}
}

func combineMean(prev, next float64, prevN int) float64 {
	if prevN <= 1 {
		return next
	}
	return (prev*float64(prevN-1) + next) / float64(prevN)
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func streamIDFor(rec meeting.StreamRecord) flow.MediaStreamID {
	return flow.MediaStreamID{Flow: rec.Flow, Key: rec.Key}
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
