package metrics

import (
	"time"
)

// This file implements the stall analysis the paper sketches at the end
// of §5.5 and leaves as future work: "we can compare a frame's
// packetization time with its delay. If the delay is larger than the
// packetization time over the course of several frames, the jitter
// buffer gets drained and the video will eventually stall."
//
// StallDetector models a receiver-side jitter buffer in media time: each
// completed frame contributes its packetization time (the media it
// covers) and consumes the wall-clock delay it took to be delivered.
// Sustained delivery deficits drain the buffer; when the modeled buffer
// is empty, playback stalls until enough media accumulates again. A
// stream keeps no detector: Stalls replays one over the frame log.

// StallEvent is one predicted playback stall.
type StallEvent struct {
	// Start is when the modeled jitter buffer ran dry.
	Start time.Time
	// Duration is how long playback starved before the buffer refilled
	// to the resume threshold.
	Duration time.Duration
	// FramesLate is the number of frames whose delivery deficit
	// contributed to this stall.
	FramesLate int
}

// The jitter-buffer model's conferencing-scale parameters.
const (
	// stallInitialBuffer is the media time buffered before playback
	// starts (Zoom-like conferencing buffers are small).
	stallInitialBuffer = 120 * time.Millisecond
	// stallResumeThreshold is the media time that must accumulate after
	// a stall before playback resumes.
	stallResumeThreshold = 60 * time.Millisecond
)

// StallDetector accumulates frame delivery timing and predicts stalls.
type StallDetector struct {
	// Events is the list of completed stalls.
	Events []StallEvent

	started  bool
	buffer   time.Duration // buffered media time
	stalled  bool
	stallAt  time.Time
	lateRun  int
	lastSeen time.Time
}

// ObserveFrame feeds one completed frame: completed is its delivery
// time, delay the §5.5 frame delay (first→last packet), packetization
// the media time the frame covers (from §5.2 method 2). Returns true if
// this observation opened a new stall.
func (d *StallDetector) ObserveFrame(completed time.Time, delay, packetization time.Duration) bool {
	if packetization <= 0 {
		return false
	}
	if !d.started {
		d.started = true
		d.buffer = stallInitialBuffer
		d.lastSeen = completed
	}

	// Frames deliver media worth `packetization`; getting them costs
	// wall-clock `gap` since the previous frame (bounded below by the
	// intra-frame delay). The difference drains or refills the buffer.
	gap := completed.Sub(d.lastSeen)
	if gap < 0 {
		gap = 0
	}
	d.lastSeen = completed
	cost := gap
	if delay > cost {
		cost = delay
	}
	d.buffer += packetization - cost

	if delay > packetization {
		d.lateRun++
	} else {
		d.lateRun = 0
	}

	const maxBuffer = 2 * time.Second
	if d.buffer > maxBuffer {
		d.buffer = maxBuffer
	}

	switch {
	case !d.stalled && d.buffer <= 0:
		d.stalled = true
		d.stallAt = completed
		d.buffer = 0
		return true
	case d.stalled && d.buffer >= stallResumeThreshold:
		d.Events = append(d.Events, StallEvent{
			Start:      d.stallAt,
			Duration:   completed.Sub(d.stallAt),
			FramesLate: d.lateRun,
		})
		d.stalled = false
		d.lateRun = 0
	}
	return false
}

// Finish closes an open stall at the given end-of-stream time.
func (d *StallDetector) Finish(end time.Time) {
	if d.stalled {
		d.Events = append(d.Events, StallEvent{
			Start:      d.stallAt,
			Duration:   end.Sub(d.stallAt),
			FramesLate: d.lateRun,
		})
		d.stalled = false
	}
}

// Stalls is §5.5's stall prediction for the stream: a fresh detector fed,
// in the order frames finished, every logged frame with an encoder-rate
// sample — its completion time, its delay and the packetization time its
// ΔRTP spans — and, on a finished stream, closed at the end of the last
// rate bin. A stream without an RTP clock logs no ΔRTP and predicts none.
func (sm *StreamMetrics) Stalls() []StallEvent {
	var d StallDetector
	for i := range sm.frames.Len() {
		if f := sm.frames.At(i); f.DeltaTS > 0 {
			d.ObserveFrame(time.Unix(0, f.At).UTC(), time.Duration(f.Delay), packetization(f.DeltaTS, sm.clockRate))
		}
	}
	if sm.finished {
		d.Finish(time.Unix(0, sm.binStart).UTC())
	}
	return d.Events
}
