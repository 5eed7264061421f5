// Package metrics derives the performance metrics of §5 of the paper
// from parsed Zoom packet streams: overall and per-media bit rates
// (§5.1), frame rate by both methods and frame size (§5.2), latency from
// RTP stream copies (§5.3), frame-level jitter (§5.4), and loss,
// retransmission, frame delay, and packetization time (§5.5).
package metrics

import (
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
	// FirstPacket and Completed are the arrival times of the frame's
	// first and last packet at the monitor.
	FirstPacket time.Time
	Completed   time.Time
	// Packets is the number of distinct packets observed.
	Packets int
	// ExpectedPackets is the Zoom "# packets in frame" header value
	// (video only; 0 otherwise).
	ExpectedPackets int
	// Bytes is the summed RTP payload size: the frame size metric of
	// §5.2.
	Bytes int
	// SawMarker reports whether the RTP marker bit was seen (set on the
	// last packet of a frame).
	SawMarker bool
}

// Delay returns the frame delay of §5.5: time from first packet to full
// delivery. High values indicate retransmissions within the frame.
func (f *Frame) Delay() time.Duration { return f.Completed.Sub(f.FirstPacket) }

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

	open   map[uint32]*openFrame
	order  []uint32 // insertion order of open frames
	free   []*openFrame
	lastTS uint32
	seen   bool
}

type openFrame struct {
	frame Frame
	// seqs holds the distinct sequence numbers seen for this frame.
	// Frames are at most a few hundred packets, so a linear dup scan over
	// a reused slice beats a per-frame map allocation on the hot path.
	seqs []uint16
}

// maxOpenFrames bounds an assembler's memory: beyond it the oldest
// incomplete frame is flushed (and reported incomplete).
const maxOpenFrames = 64

// Observe ingests one RTP media packet of the substream.
func (a *FrameAssembler) Observe(at time.Time, media *zoom.MediaEncap, pkt *rtp.Packet) {
	if a.open == nil {
		// Lazily built so a restored-but-idle assembler costs no map.
		a.open = make(map[uint32]*openFrame)
	}
	ts := pkt.Timestamp
	of := a.open[ts]
	if of == nil {
		if n := len(a.free); n > 0 {
			of = a.free[n-1]
			a.free[n-1] = nil
			a.free = a.free[:n-1]
			of.frame = Frame{RTPTimestamp: ts, FirstPacket: at}
			of.seqs = of.seqs[:0]
		} else {
			of = &openFrame{frame: Frame{RTPTimestamp: ts, FirstPacket: at}}
		}
		if media.Type == zoom.TypeVideo {
			of.frame.FrameSequence = media.FrameSequence
			of.frame.ExpectedPackets = int(media.PacketsInFrame)
		}
		a.open[ts] = of
		a.order = append(a.order, ts)
		// A new frame starting is a completion hint for older marker-less
		// frames without a packet count: finish any frame strictly older
		// than the previous timestamp.
		if a.seen && rtp.TSDiff(a.lastTS, ts) > 0 {
			a.flushOlderThan(ts)
		}
	}
	for _, s := range of.seqs {
		if s == pkt.SequenceNumber {
			return // Zoom retransmission: same seq, do not double count
		}
	}
	of.seqs = append(of.seqs, pkt.SequenceNumber)
	of.frame.Packets++
	of.frame.Bytes += len(pkt.Payload)
	if pkt.Marker {
		of.frame.SawMarker = true
	}
	if at.After(of.frame.Completed) {
		of.frame.Completed = at
	}
	if a.seen {
		if rtp.TSDiff(a.lastTS, ts) > 0 {
			a.lastTS = ts
		}
	} else {
		a.lastTS = ts
		a.seen = true
	}

	if a.isComplete(of) {
		a.finish(ts, true)
	} else if len(a.open) > maxOpenFrames {
		a.flushOldest()
	}
}

func (a *FrameAssembler) isComplete(of *openFrame) bool {
	if of.frame.ExpectedPackets > 0 {
		return of.frame.Packets >= of.frame.ExpectedPackets
	}
	// Without a count, the marker bit ends the frame. Single-packet
	// frames (all Zoom audio) carry the marker or complete on next-frame
	// start via flushOlderThan.
	return of.frame.SawMarker
}

func (a *FrameAssembler) finish(ts uint32, complete bool) {
	of := a.open[ts]
	if of == nil {
		return
	}
	delete(a.open, ts)
	for i, v := range a.order {
		if v == ts {
			a.order = append(a.order[:i], a.order[i+1:]...)
			break
		}
	}
	if a.OnFrame != nil {
		a.OnFrame(of.frame, complete)
	}
	if len(a.free) < maxOpenFrames {
		a.free = append(a.free, of)
	}
}

// flushOlderThan completes marker-less, countless frames older than ts.
func (a *FrameAssembler) flushOlderThan(ts uint32) {
	var stale []uint32
	for ots, of := range a.open {
		if ots == ts {
			continue
		}
		if of.frame.ExpectedPackets == 0 && rtp.TSDiff(ots, ts) > 0 {
			stale = append(stale, ots)
		}
	}
	for _, ots := range stale {
		a.finish(ots, true)
	}
}

func (a *FrameAssembler) flushOldest() {
	if len(a.order) == 0 {
		return
	}
	a.finish(a.order[0], false)
}

// Flush completes all open frames (end of stream). Frames with a known
// packet count that is not met are reported incomplete.
func (a *FrameAssembler) Flush() {
	for len(a.order) > 0 {
		ts := a.order[0]
		of := a.open[ts]
		complete := of != nil && (a.isComplete(of) || of.frame.ExpectedPackets == 0)
		a.finish(ts, complete)
	}
}

// FrameRateWindow implements §5.2 method 1: a sliding one-second window
// of completed frames whose occupancy is the delivered frame rate. The
// zero value is an empty window.
type FrameRateWindow struct {
	times []time.Time // completion times, oldest first
}

// Add records a completed frame and returns the frame rate at that
// instant (frames completed in the trailing window, per second).
func (w *FrameRateWindow) Add(completed time.Time) float64 {
	w.times = append(w.times, completed)
	return w.Rate(completed)
}

// Rate evicts frames older than the window relative to now and returns
// the current rate in frames per second.
func (w *FrameRateWindow) Rate(now time.Time) float64 {
	cut := now.Add(-time.Second)
	i := 0
	for i < len(w.times) && !w.times[i].After(cut) {
		i++
	}
	if i > 0 {
		w.times = append(w.times[:0], w.times[i:]...)
	}
	return float64(len(w.times))
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
