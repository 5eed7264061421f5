// Package metrics derives the performance metrics of §5 of the paper
// from parsed Zoom packet streams: overall and per-media bit rates
// (§5.1), frame rate by both methods and frame size (§5.2), latency from
// RTP stream copies (§5.3), frame-level jitter (§5.4), and loss,
// retransmission, frame delay, and packetization time (§5.5).
package metrics

import (
	"slices"
	"time"

	"zoomlens/internal/rtp"
	"zoomlens/internal/zoom"
)

// Frame is a reassembled media frame.
type Frame struct {
	// RTPTimestamp identifies the frame within its stream.
	RTPTimestamp uint32
	// FrameSequence is the Zoom frame sequence number (video only).
	FrameSequence uint16
	// SawMarker reports whether the RTP marker bit was seen (set on the
	// last packet of a frame).
	SawMarker bool
	// FirstPacket and Completed are the arrival times of the frame's
	// first and last packet at the monitor, in Unix nanoseconds.
	FirstPacket int64
	Completed   int64
	// Packets is the number of distinct packets observed.
	Packets int
	// ExpectedPackets is the Zoom "# packets in frame" header value
	// (video only; 0 otherwise).
	ExpectedPackets int
	// Bytes is the summed RTP payload size: the frame size metric of
	// §5.2.
	Bytes int
}

// Delay returns the frame delay of §5.5: time from first packet to full
// delivery. High values indicate retransmissions within the frame.
func (f *Frame) Delay() time.Duration { return time.Duration(f.Completed - f.FirstPacket) }

// FrameAssembler groups a substream's RTP packets into frames by RTP
// timestamp and decides completion.
//
// For video, the Zoom media encapsulation carries the expected number of
// packets per frame (Table 1), so a frame completes exactly when that
// many distinct sequence numbers arrived (§5.2 method 1). For audio and
// screen share, where the field is absent, a frame completes when its
// marker-bit packet and all preceding packets are present, falling back
// to "next frame started" as a completion signal for marker-less frames.
type FrameAssembler struct {
	// OnFrame receives every completed (or flushed) frame in completion
	// order. Flushed incomplete frames have SawMarker==false and
	// Packets < ExpectedPackets (when the latter is known).
	OnFrame func(Frame, bool) // (frame, complete)

	// open holds the incomplete frames in the order they started, one to
	// three in practice, so a packet finds its frame by scanning from the
	// newest. Past len, up to cap, are finished frames' seqs buffers to reuse.
	open   []openFrame
	lastTS uint32
	seen   bool
}

type openFrame struct {
	Frame
	// seqs holds the distinct sequence numbers seen for this frame.
	// Frames are at most a few hundred packets, so a linear dup scan over
	// a reused slice beats a per-frame map allocation on the hot path.
	seqs []uint16
}

// maxOpenFrames bounds an assembler's memory: beyond it the oldest
// incomplete frame is flushed (and reported incomplete).
const maxOpenFrames = 64

// Observe ingests one RTP media packet of the substream, seen at the
// given Unix nanosecond.
func (a *FrameAssembler) Observe(at int64, media *zoom.MediaEncap, pkt *rtp.Packet) {
	ts := pkt.Timestamp
	i := len(a.open) - 1
	for i >= 0 && a.open[i].RTPTimestamp != ts {
		i--
	}
	if i < 0 {
		// A new frame starting is a completion hint for older marker-less
		// frames without a packet count: finish any frame strictly older
		// than the previous timestamp.
		if a.seen && rtp.TSDiff(a.lastTS, ts) > 0 {
			a.flushOlderThan(ts)
		}
		if i = len(a.open); i < cap(a.open) {
			a.open = a.open[:i+1]
		} else {
			a.open = append(a.open, openFrame{})
		}
		of := &a.open[i]
		of.Frame, of.seqs = Frame{RTPTimestamp: ts, FirstPacket: at, Completed: at}, of.seqs[:0]
		if media.Type == zoom.TypeVideo {
			of.FrameSequence = media.FrameSequence
			of.ExpectedPackets = int(media.PacketsInFrame)
		}
	}
	of := &a.open[i]
	if slices.Contains(of.seqs, pkt.SequenceNumber) {
		return // Zoom retransmission: same seq, do not double count
	}
	of.seqs = append(of.seqs, pkt.SequenceNumber)
	of.Packets++
	of.Bytes += len(pkt.Payload)
	of.SawMarker = of.SawMarker || pkt.Marker
	of.Completed = max(of.Completed, at)
	if !a.seen || rtp.TSDiff(a.lastTS, ts) > 0 {
		a.lastTS, a.seen = ts, true
	}

	if of.isComplete() {
		a.finish(i, true)
	} else if len(a.open) > maxOpenFrames {
		a.finish(0, false)
	}
}

func (of *openFrame) isComplete() bool {
	if of.ExpectedPackets > 0 {
		return of.Packets >= of.ExpectedPackets
	}
	// Without a count, the marker bit ends the frame. Single-packet
	// frames (all Zoom audio) carry the marker or complete on next-frame
	// start via flushOlderThan.
	return of.SawMarker
}

// finish reports open frame i and removes it, keeping the order of the
// rest and parking its seqs buffer past the end for reuse.
func (a *FrameAssembler) finish(i int, complete bool) {
	of := a.open[i]
	copy(a.open[i:], a.open[i+1:])
	a.open[len(a.open)-1] = of
	a.open = a.open[:len(a.open)-1]
	if a.OnFrame != nil {
		a.OnFrame(of.Frame, complete)
	}
}

// flushOlderThan completes marker-less, countless frames older than ts,
// oldest-started first.
func (a *FrameAssembler) flushOlderThan(ts uint32) {
	for i := 0; i < len(a.open); {
		if of := &a.open[i]; of.ExpectedPackets == 0 && rtp.TSDiff(of.RTPTimestamp, ts) > 0 {
			a.finish(i, true)
		} else {
			i++
		}
	}
}

// Flush completes all open frames (end of stream). Frames with a known
// packet count that is not met are reported incomplete.
func (a *FrameAssembler) Flush() {
	for len(a.open) > 0 {
		of := &a.open[0]
		a.finish(0, of.isComplete() || of.ExpectedPackets == 0)
	}
}

// FrameRateWindow implements §5.2 method 1: a sliding one-second window
// of completed frames whose occupancy is the delivered frame rate. The
// zero value is an empty window.
type FrameRateWindow struct {
	// times[head:] are the completion times inside the window, oldest
	// first, in Unix nanoseconds; times[:head] have left it and are
	// dropped once they are half the slice.
	times []int64
	head  int
}

// Add records a completed frame and returns the frame rate at that
// instant (frames completed in the trailing window, per second).
func (w *FrameRateWindow) Add(completed int64) float64 {
	w.times = append(w.times, completed)
	return w.Rate(completed)
}

// Rate evicts frames older than the window relative to now and returns
// the current rate in frames per second.
func (w *FrameRateWindow) Rate(now int64) float64 {
	cut := now - int64(time.Second)
	for w.head < len(w.times) && w.times[w.head] <= cut {
		w.head++
	}
	if w.head*2 > len(w.times) {
		w.times = w.times[:copy(w.times, w.times[w.head:])]
		w.head = 0
	}
	return float64(len(w.times) - w.head)
}

// EncoderFrameRate implements §5.2 method 2: the encoder's intended frame
// rate FR = clockRate / ΔRTP between consecutive frames. It also yields
// the packetization time FR⁻¹ used by the stall analysis of §5.5.
type EncoderFrameRate struct {
	clockRate float64
	lastTS    uint32
	seen      bool
}

// Observe feeds the RTP timestamp of each new frame (in decode order) and
// returns (frame rate in fps, packetization time, ok). ok is false for
// the first frame and for non-increasing timestamps.
func (e *EncoderFrameRate) Observe(ts uint32) (fps float64, packetization time.Duration, ok bool) {
	if !e.seen {
		e.seen = true
		e.lastTS = ts
		return 0, 0, false
	}
	d := rtp.TSDiff(e.lastTS, ts)
	if d <= 0 {
		// Reordered or duplicated frame timestamp: keep the baseline.
		// Advancing lastTS here would regress it, inflating the next
		// in-order frame's ΔRTP and skewing both the method-2 frame rate
		// and the packetization time fed to stall analysis.
		return 0, 0, false
	}
	e.lastTS = ts
	fps = e.clockRate / float64(d)
	packetization = time.Duration(float64(d) / e.clockRate * float64(time.Second))
	return fps, packetization, true
}
