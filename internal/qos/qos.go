// Package qos models the client-side statistics that Zoom exposes
// through its SDK — the ground truth the paper used to validate its
// passive estimates (§5, Figure 10). The SDK reports once per second;
// the latency value refreshes only every five seconds, and the jitter
// value is heavily smoothed (the paper observed it never exceeding 2 ms
// even under congestion).
package qos

import "time"

// Stats is one per-second statistics snapshot as the client application
// would log it.
type Stats struct {
	// VideoFPS is the received video frame rate.
	VideoFPS float64
	// LatencyMS is the client's latency estimate.
	LatencyMS float64
	// JitterMS is the client's (smoothed) jitter estimate.
	JitterMS float64
}

// Entry is a recorded snapshot.
type Entry struct {
	Time time.Time
	Stats
}

// Recorder accumulates per-second entries, applying the SDK's reporting
// quirks: the latency field only updates every LatencyRefresh.
type Recorder struct {
	// Name identifies the client.
	Name string
	// LatencyRefresh is how often the reported latency re-samples
	// (Zoom: 5 s).
	LatencyRefresh time.Duration

	Entries []Entry

	lastLatencyAt time.Time
	heldLatency   float64
}

// NewRecorder builds a recorder with Zoom's 5-second latency refresh.
func NewRecorder(name string) *Recorder {
	return &Recorder{Name: name, LatencyRefresh: 5 * time.Second}
}

// Record appends one snapshot, applying the latency hold.
func (r *Recorder) Record(at time.Time, s Stats) {
	if r.lastLatencyAt.IsZero() || at.Sub(r.lastLatencyAt) >= r.LatencyRefresh {
		r.heldLatency = s.LatencyMS
		r.lastLatencyAt = at
	}
	s.LatencyMS = r.heldLatency
	r.Entries = append(r.Entries, Entry{Time: at, Stats: s})
}
