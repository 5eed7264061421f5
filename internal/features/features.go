// Package features is the streaming feature-extraction layer of the
// engine: per-stream windowed feature vectors built on the capture
// clock for machine-learned QoE inference — the application the paper
// proposes in §8 ("our system can help automatically generate large,
// feature-rich data sets from real-world traffic"), extended to the
// header-free scenario of Sharma et al. (frame rate/freeze prediction
// from flow statistics) and Song et al. (QoS prediction over concurrent
// RTP flows).
//
// The Windower consumes the analyzer's per-packet media observations —
// the same globally ordered stream the cross-flow Dedup/CopyMatcher
// reconciliation consumes — and emits one Row per stream per window.
// Because the observation stream is identical across the sequential,
// sharded-parallel, and cluster execution tiers, the emitted rows are
// byte-identical across all three.
//
// A Row's inputs split in two:
//
//   - Header-free observables: packet/byte counts and rates,
//     inter-arrival statistics, burst shape, and packet-size
//     distribution (including entropy). These need nothing beyond the
//     five-tuple and capture timestamps, so they survive full header
//     encryption — the "what if you can't parse the RTP header at all"
//     scenario.
//   - Oracle columns: loss/duplicate estimates from RTP sequence
//     numbers and frame transitions from RTP timestamps. They require a
//     readable RTP header and exist for dataset enrichment and model
//     comparison; header-free predictors must not consume them.
package features

import (
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/layers"
	"zoomlens/internal/metrics"
	"zoomlens/internal/qos"
	"zoomlens/internal/zoom"
)

// Obs is one media-packet observation: the windower's input record,
// mirroring the fields the analyzer's reconciliation path carries per
// packet.
type Obs struct {
	At   time.Time
	Flow layers.FiveTuple
	Key  zoom.StreamKey
	// WireLen/PayloadLen are the captured frame and UDP payload sizes —
	// the header-free size observables.
	WireLen    int
	PayloadLen int
	// PT/RTPSeq/RTPTS are header-derived (oracle) inputs.
	PT     uint8
	RTPSeq uint16
	RTPTS  uint32
}

// Row is one stream-window feature vector.
type Row struct {
	// Start is the window's inclusive start on the capture clock; the
	// window covers [Start, Start+Window). Windows are aligned to
	// absolute multiples of Window since the Unix epoch.
	Start  time.Time
	Window time.Duration
	// ID identifies the stream (flow five-tuple + SSRC/type/proto).
	ID flow.MediaStreamID

	// Header-free observables.
	Packets      uint64
	WireBytes    uint64
	PayloadBytes uint64
	// Inter-arrival statistics in milliseconds. The gap to the stream's
	// previous packet counts even when that packet fell in an earlier
	// window; a stream's very first packet contributes no gap.
	IATMeanMS float64
	IATStdMS  float64
	IATMinMS  float64
	IATMaxMS  float64
	// Bursts counts maximal runs of packets separated by no more than
	// BurstGap within the window; MaxBurstPkts is the longest run.
	Bursts       int
	MaxBurstPkts int
	// Packet-size (wire length) distribution.
	SizeMeanB float64
	SizeStdB  float64
	SizeMinB  int
	SizeMaxB  int
	// SizeEntropy is the Shannon entropy (bits) of the wire-length
	// distribution over logarithmic size buckets.
	SizeEntropy float64

	// Oracle columns (RTP-header derived; optional).
	SeqLost    int
	SeqDup     int
	FrameMarks int
}

// PktRate is the window-normalized packet rate (packets/s).
func (r Row) PktRate() float64 {
	if r.Window <= 0 {
		return 0
	}
	return float64(r.Packets) / r.Window.Seconds()
}

// WireKbps is the window-normalized wire bitrate in kbit/s.
func (r Row) WireKbps() float64 {
	if r.Window <= 0 {
		return 0
	}
	return float64(r.WireBytes) * 8 / 1000 / r.Window.Seconds()
}

// windowIndex floors t onto the absolute window grid: index i covers
// [i*window, (i+1)*window) on the Unix timeline. A timestamp exactly on
// an edge belongs to the window it opens; one outside the int64
// nanosecond span saturates to its edge (metrics.Nanos) instead of
// wrapping onto another window.
func windowIndex(t time.Time, window time.Duration) int64 {
	return metrics.Nanos(t) / int64(window)
}

// Label is a coarse quality label for supervised training.
type Label int

// Quality labels derived from client-side ground truth.
const (
	LabelGood Label = iota
	LabelDegraded
	LabelBad
	// NumLabels sizes per-class arrays.
	NumLabels = 3
)

func (l Label) String() string {
	switch l {
	case LabelGood:
		return "good"
	case LabelDegraded:
		return "degraded"
	case LabelBad:
		return "bad"
	}
	return "unknown"
}

// LabelFromQoS derives a label from a client's QoS entry: full frame
// rate and low latency → good; halved frame rate or elevated latency →
// degraded; worse → bad. targetFPS is the nominal sender rate.
func LabelFromQoS(e qos.Entry, targetFPS float64) Label {
	switch {
	case e.VideoFPS >= 0.8*targetFPS && e.LatencyMS < 150:
		return LabelGood
	case e.VideoFPS >= 0.45*targetFPS && e.LatencyMS < 300:
		return LabelDegraded
	default:
		return LabelBad
	}
}

// LabeledRow joins a feature row with a ground-truth label.
type LabeledRow struct {
	Row
	Label Label
}

// Join matches rows to QoS entries by window bin. An entry at time T
// labels the row whose window [Start, Start+Window) contains T — bin
// matching is floor-based on the same absolute grid the Windower emits
// on. The boundary semantics follow the half-open window: an entry
// falling exactly on a window edge labels the window that edge opens,
// never the one it closes, while an entry one nanosecond earlier labels
// the closing window (regression-tested in TestJoinWindowEdge). When
// several entries land in one window the last in input order wins. Rows
// without a matching entry are dropped (the client was not recording).
func Join(rows []Row, entries []qos.Entry, targetFPS float64) []LabeledRow {
	if len(rows) == 0 {
		return nil
	}
	win := rows[0].Window
	if win <= 0 {
		return nil
	}
	byBin := make(map[int64]qos.Entry, len(entries))
	for _, e := range entries {
		byBin[windowIndex(e.Time, win)] = e
	}
	out := make([]LabeledRow, 0, len(rows))
	for _, r := range rows {
		e, ok := byBin[windowIndex(r.Start, win)]
		if !ok {
			continue
		}
		out = append(out, LabeledRow{Row: r, Label: LabelFromQoS(e, targetFPS)})
	}
	return out
}
