package core

import (
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/metrics"
	"zoomlens/internal/statecodec"
)

// Periodic QoE snapshots: a live, per-meeting view of the §5 metrics
// over a trailing window, for continuous deployments that cannot wait
// for the end-of-capture report. Snapshots are strictly read-only over
// analyzer state — a run with snapshots enabled produces final reports
// byte-identical to a run without (the differential test pins this).
//
// Time is trace time (packet capture timestamps), not wall clock: the
// driver fires Snapshot off the packet stream's own clock, which makes
// offline replays emit the same snapshots a live tap would have.

// MeetingSnapshot is one meeting's rolling QoE state, emitted as one
// JSON line per meeting per interval.
type MeetingSnapshot struct {
	// Time is the snapshot instant (trace time).
	Time time.Time `json:"time"`
	// Meeting is the §4.3 grouper's meeting ID (stable within a run
	// unless meetings merge).
	Meeting      int `json:"meeting"`
	Participants int `json:"participants"`
	// Streams counts the meeting's observed stream records (per flow and
	// SSRC, before unification).
	Streams int `json:"streams"`
	// Packets, Lost, and Retransmits are cumulative over the meeting's
	// streams since capture start.
	Packets     uint64 `json:"packets"`
	Lost        uint64 `json:"lost"`
	Retransmits uint64 `json:"retx"`
	// MediaBPS is the summed media bit rate over the trailing window.
	MediaBPS float64 `json:"media_bps"`
	// FPS is the mean delivered video frame rate over the window (0 when
	// no video frame completed in it).
	FPS float64 `json:"fps"`
	// JitterMS is the mean frame-level jitter over the window.
	JitterMS float64 `json:"jitter_ms"`
	// RTTMS is the mean §5.3 method-1 RTT over the window; RTTSamples
	// counts the samples behind it.
	RTTMS      float64 `json:"rtt_ms"`
	RTTSamples int     `json:"rtt_samples"`
}

// Snapshot returns the per-meeting rolling metrics at trace time now
// over the trailing window. Read-only; call between packets, from the
// ingest goroutine (a parallel engine quiesces first, so results match
// the sequential engine's at the same packet boundary). Meetings are
// ordered by start time (the Meetings() order).
// Aggregation iterates the dedup records in their deterministic order,
// so identical engine state yields byte-identical snapshots (the
// sequential/parallel differential test relies on this).
func (p *pipeline) Snapshot(now time.Time, window time.Duration) []MeetingSnapshot {
	defer p.cfg.trace("snapshot")()
	p.o.snapshots.Inc()
	byID := p.streamsByID() // quiesces first
	if window <= 0 {
		window = time.Second
	}
	cut := now.Add(-window)
	ru := p.rollup()
	if len(ru.meetings) == 0 {
		return nil
	}

	out := make([]MeetingSnapshot, len(ru.meetings))
	type agg struct {
		fpsSum, fpsN float64
		jitSum, jitN float64
		rttSum, rttN float64
		mediaBits    float64
	}
	aggs := make([]agg, len(ru.meetings))
	for i, m := range ru.meetings {
		out[i] = MeetingSnapshot{
			Time:         now,
			Meeting:      m.ID,
			Participants: m.Participants(),
		}
	}

	cutNS, nowNS := metrics.Nanos(cut), metrics.Nanos(now)
	sampleAt := func(s *metrics.Sample) int64 { return s.At }
	frameAt := func(f *metrics.FrameRecord) int64 { return f.At }

	for _, r := range ru.records {
		mi := ru.meetingOf[r.Unified]
		out[mi].Streams++
		a := &aggs[mi]
		for _, seg := range byID[flow.MediaStreamID{Flow: r.Flow, Key: r.Key}] {
			sm := seg.Metrics
			out[mi].Packets += sm.Packets
			ls := sm.LossStats()
			out[mi].Lost += ls.EstimatedLost
			out[mi].Retransmits += ls.Duplicates
			media := &sm.MediaRate.Samples
			for i, hi := windowTail(media, sampleAt, cutNS, nowNS); i < hi; i++ {
				a.mediaBits += media.At(i).Value
			}
			// The frame-rate series, read off the frame log's tail.
			frames := sm.Frames()
			for i, hi := windowTail(frames, frameAt, cutNS, nowNS); i < hi; i++ {
				a.fpsSum += float64(frames.At(i).Rate)
				a.fpsN++
			}
			jitter := &sm.JitterMS.Samples
			for i, hi := windowTail(jitter, sampleAt, cutNS, nowNS); i < hi; i++ {
				a.jitSum += jitter.At(i).Value
				a.jitN++
			}
		}
	}

	// RTT samples carry their unified stream; fold each into its meeting.
	ss := &p.Copies.Samples
	lo := ss.Len()
	for lo > 0 && ss.At(lo-1).At > cutNS {
		lo--
	}
	for i := lo; i < ss.Len(); i++ {
		rs := ss.At(i)
		if rs.At > nowNS {
			continue
		}
		if mi, ok := ru.meetingOf[rs.Unified]; ok {
			aggs[mi].rttSum += float64(rs.RTT) / float64(time.Millisecond)
			aggs[mi].rttN++
		}
	}

	for i := range out {
		a := &aggs[i]
		// MediaRate emits one bin per stream per elapsed second; averaging
		// bins per stream then summing equals dividing the bit total by
		// the per-stream bin count only when streams align — instead
		// report bits per window second: total bits / window seconds.
		out[i].MediaBPS = a.mediaBits / window.Seconds()
		if a.fpsN > 0 {
			out[i].FPS = a.fpsSum / a.fpsN
		}
		if a.jitN > 0 {
			out[i].JitterMS = a.jitSum / a.jitN
		}
		if a.rttN > 0 {
			out[i].RTTMS = a.rttSum / a.rttN
			out[i].RTTSamples = int(a.rttN)
		}
	}
	return out
}

// windowTail returns the index range [lo, hi) of l's trailing elements
// timed inside (cut, now], at giving an element's time in Unix
// nanoseconds: l is appended in time order, so the window is a suffix
// less the elements past now. It reads the log in place.
func windowTail[T any](l *statecodec.Log[T], at func(*T) int64, cut, now int64) (lo, hi int) {
	lo = l.Len()
	for lo > 0 && at(l.At(lo-1)) > cut {
		lo--
	}
	hi = l.Len()
	for hi > lo && at(l.At(hi-1)) > now {
		hi--
	}
	return lo, hi
}
