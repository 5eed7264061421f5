package metrics

import (
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/meeting"
)

// RTTSample is one latency measurement.
type RTTSample struct {
	Time time.Time
	RTT  time.Duration
	// Unified is the stream whose copies produced the sample.
	Unified meeting.UnifiedID
}

// CopyMatcher implements §5.3 method 1: when the monitor sees both the
// uplink copy of a stream (client → SFU) and a downlink copy of the same
// stream (SFU → another on-campus client), packets with matching RTP
// sequence numbers measure the round trip from the monitor to the SFU
// and back (Figure 11, solid lines).
//
// Matching is keyed on (unified stream, payload type, sequence number);
// all four features of the duplicate-detection heuristic (time, SSRC,
// seq, timestamp) participate because unified IDs already encode
// SSRC/timestamp proximity and the age limit bounds time.
type CopyMatcher struct {
	// MaxPending triggers garbage collection of the pending map beyond
	// this many entries, bounding matcher state on long captures. Zero
	// selects DefaultMaxPending. It is configuration: whoever builds the
	// matcher sets it (core derives it from Config.MaxStreams), and no
	// checkpoint record carries it.
	MaxPending int
	// Samples receives each RTT measurement.
	Samples []RTTSample

	pending map[copyKey]obs

	// Delta-checkpoint tracking (see delta.go): armed by
	// MarkCheckpointed, nil/false on matchers that never checkpoint so
	// the hot path pays only a branch.
	dirty     map[copyKey]struct{}
	dead      map[copyKey]struct{}
	ckSamples int
	armed     bool
	overflow  bool
}

// DefaultMaxPending is the pending-entry GC threshold when MaxPending is
// unset.
const DefaultMaxPending = 1 << 16

type copyKey struct {
	unified meeting.UnifiedID
	pt      uint8
	seq     uint16
	ts      uint32
}

type obs struct {
	at   time.Time
	flow layers.FiveTuple
}

// copyMaxAge bounds how long a first observation waits for its copy.
const copyMaxAge = 5 * time.Second

// NewCopyMatcher returns an empty matcher.
func NewCopyMatcher() *CopyMatcher {
	return &CopyMatcher{pending: make(map[copyKey]obs)}
}

// Observe ingests one media packet observation annotated with its
// unified stream ID and returns an RTT sample if this packet pairs with
// an earlier copy on a different flow.
func (cm *CopyMatcher) Observe(unified meeting.UnifiedID, flow layers.FiveTuple, pt uint8, seq uint16, ts uint32, at time.Time) (RTTSample, bool) {
	k := copyKey{unified, pt, seq, ts}
	if prev, ok := cm.pending[k]; ok {
		if prev.flow != flow {
			age := at.Sub(prev.at)
			if age >= 0 && age <= copyMaxAge {
				s := RTTSample{Time: at, RTT: age, Unified: unified}
				cm.Samples = append(cm.Samples, s)
				delete(cm.pending, k)
				cm.bury(k)
				return s, true
			}
		}
		// Same flow (a retransmission) or stale: refresh the pending
		// observation so later copies match the most recent send. The
		// refreshed entry must carry the *observing* packet's flow — a
		// stale cross-flow copy supersedes the old observation entirely,
		// and keeping the old flow with the new timestamp would let a
		// later same-flow packet pair against it as a bogus RTT sample.
		cm.pending[k] = obs{at: at, flow: flow}
		cm.touch(k)
		return RTTSample{}, false
	}
	cm.pending[k] = obs{at: at, flow: flow}
	cm.touch(k)
	if len(cm.pending) > cm.maxPending() {
		cm.gc(at)
	}
	return RTTSample{}, false
}

func (cm *CopyMatcher) maxPending() int {
	if cm.MaxPending > 0 {
		return cm.MaxPending
	}
	return DefaultMaxPending
}

// Pending reports the pending-map occupancy (for the observability
// gauges).
func (cm *CopyMatcher) Pending() int { return len(cm.pending) }

// gc removes entries older than copyMaxAge; if the map is still over the
// cap (a burst of unmatched observations younger than that), the age
// bound halves until the map fits, keeping the newest entries — a
// deterministic eviction order, so capped runs stay reproducible.
func (cm *CopyMatcher) gc(now time.Time) {
	age := copyMaxAge
	for {
		for k, o := range cm.pending {
			if now.Sub(o.at) > age {
				delete(cm.pending, k)
				cm.bury(k)
			}
		}
		if len(cm.pending) <= cm.maxPending() || age < time.Millisecond {
			return
		}
		age /= 2
	}
}

// SeriesMS renders the samples as a millisecond time series.
func (cm *CopyMatcher) SeriesMS() Series {
	var s Series
	for _, sm := range cm.Samples {
		s.Add(Nanos(sm.Time), float64(sm.RTT)/float64(time.Millisecond))
	}
	return s
}
