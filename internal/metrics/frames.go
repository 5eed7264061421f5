// Package metrics derives the performance metrics of §5 of the paper
// from parsed Zoom packet streams: overall and per-media bit rates
// (§5.1), frame rate by both methods and frame size (§5.2), latency from
// RTP stream copies (§5.3), frame-level jitter (§5.4), and loss,
// retransmission and frame delay (§5.5).
package metrics

import (
	"math"
	"slices"
	"time"

	"zoomlens/internal/rtp"
	"zoomlens/internal/statecodec"
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

// FrameRecord is one finished frame as a stream's frame log keeps it:
// everything the per-frame metrics of §5 need, in 40 bytes without a
// pointer, so a finished frame costs one append and the log is memory
// the collector never scans.
//
// Rate and DeltaTS are what the substream's two frame-rate estimators
// answered when the frame finished. They are stored rather than
// recomputed from At and TS because frames do not finish in time order
// — one flushed incomplete finishes long after newer ones — and a
// replayed window would then disagree with the live one; stored, every
// series is a function of one record.
type FrameRecord struct {
	// At is when the frame's last packet arrived, in Unix nanoseconds
	// (see Nanos); Delay is how long after its first that was, §5.5's
	// frame delay, in nanoseconds.
	At    int64
	Delay int64
	// TS is the frame's RTP timestamp.
	TS uint32
	// Bytes is the summed RTP payload, the frame size of §5.2. A frame
	// holds at most 65,536 distinct sequence numbers of at most 65,507
	// payload bytes each, which fits; onFrame saturates regardless.
	Bytes uint32
	// Rate is §5.2 method 1, the delivered frame rate: how many of the
	// substream's frames finished in the second ending at At, this one
	// included.
	Rate uint32
	// DeltaTS is §5.2 method 2: the RTP ticks from the substream's
	// previous frame to this one, 0 when that gives no sample (the first
	// frame, a timestamp that does not advance, a stream without a clock).
	DeltaTS uint32
	// PT is the RTP payload type of the frame's substream.
	PT uint8
	// Complete is false for a frame flushed with packets missing.
	Complete bool
}

// saturate32 holds a count, which is never negative, to 32 bits.
func saturate32(n int) uint32 { return uint32(min(uint64(n), math.MaxUint32)) }

// Frames returns the stream's frame log, one record per finished frame
// in the order they finished. It is the stream's own memory: read it in
// place, do not keep or change it. Reports that need a count or a tail
// read it directly; the accessors below build a whole Series from it.
func (sm *StreamMetrics) Frames() *statecodec.Log[FrameRecord] { return &sm.frames }

// FramesTotal is how many frames the stream finished: the log's length.
func (sm *StreamMetrics) FramesTotal() uint64 { return uint64(sm.frames.Len()) }

// frameSeries builds the series whose sample for a frame is value's,
// skipping the frames it has none for.
func (sm *StreamMetrics) frameSeries(value func(*FrameRecord) (float64, bool)) Series {
	var s Series
	for i := range sm.frames.Len() {
		f := sm.frames.At(i)
		if v, ok := value(f); ok {
			s.Add(f.At, v)
		}
	}
	return s
}

// FrameRate is §5.2 method 1, sampled at each frame completion.
func (sm *StreamMetrics) FrameRate() Series {
	return sm.frameSeries(func(f *FrameRecord) (float64, bool) { return float64(f.Rate), true })
}

// EncoderRate is §5.2 method 2, in frames per second.
func (sm *StreamMetrics) EncoderRate() Series {
	return sm.frameSeries(func(f *FrameRecord) (float64, bool) {
		if f.DeltaTS == 0 {
			return 0, false
		}
		return encoderRate(f.DeltaTS, sm.clockRate), true
	})
}

// FrameSize is the bytes per frame.
func (sm *StreamMetrics) FrameSize() Series {
	return sm.frameSeries(func(f *FrameRecord) (float64, bool) { return float64(f.Bytes), true })
}

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
	// Packets < ExpectedPackets (when the latter is known). The frame is
	// the assembler's, lent for the call.
	OnFrame func(*Frame, bool) // (frame, complete)

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
	last := len(a.open) - 1
	if i != last { // seldom: the frame that finishes is nearly always the newest
		of := a.open[i]
		copy(a.open[i:], a.open[i+1:])
		a.open[last] = of
	}
	parked := &a.open[last]
	a.open = a.open[:last]
	if a.OnFrame != nil {
		a.OnFrame(&parked.Frame, complete)
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
func (w *FrameRateWindow) Add(completed int64) int {
	w.times = append(w.times, completed)
	return w.Rate(completed)
}

// Rate evicts frames older than the window relative to now and returns
// the current rate in frames per second.
func (w *FrameRateWindow) Rate(now int64) int {
	cut := now - int64(time.Second)
	for w.head < len(w.times) && w.times[w.head] <= cut {
		w.head++
	}
	if w.head*2 > len(w.times) {
		w.times = w.times[:copy(w.times, w.times[w.head:])]
		w.head = 0
	}
	return len(w.times) - w.head
}

// EncoderFrameRate implements §5.2 method 2: the encoder's intended frame
// rate FR = clockRate / ΔRTP between consecutive frames.
type EncoderFrameRate struct {
	clockRate float64
	lastTS    uint32
	seen      bool
}

// delta feeds the RTP timestamp of each new frame and returns ΔRTP, the
// ticks since the frame before it: 0 for the first frame and for
// non-increasing timestamps.
func (e *EncoderFrameRate) delta(ts uint32) uint32 {
	if !e.seen {
		e.seen = true
		e.lastTS = ts
		return 0
	}
	d := rtp.TSDiff(e.lastTS, ts)
	if d <= 0 {
		// Reordered or duplicated frame timestamp: keep the baseline.
		// Advancing lastTS here would regress it, inflating the next
		// in-order frame's ΔRTP and skewing the method-2 frame rate.
		return 0
	}
	e.lastTS = ts
	return uint32(d)
}

// encoderRate is FR = clockRate / ΔRTP, in frames per second.
func encoderRate(delta uint32, clockRate float64) float64 { return clockRate / float64(delta) }
