package metrics

import (
	"math"
	"time"
)

// This file implements the parameter sweep of §5.2: "Through a simple
// parameter sweep and comparing the result with data obtained through
// the method above [the delivered frame rate], we found that Zoom's
// video streams use a sampling rate of 90 kHz."
//
// The idea: for the true clock rate, the encoder frame rate implied by
// RTP timestamp increments (method 2) matches the delivered frame rate
// measured from arrival times (method 1). A wrong candidate scales
// method 2 by the ratio of the rates, producing a large mismatch.

// CandidateClockRates are the RTP clock rates worth sweeping: the
// audio rates of RFC 3551 and common codecs, and the 90 kHz video rate.
var CandidateClockRates = []float64{8000, 16000, 24000, 44100, 48000, 90000}

// ClockRateEstimate is the sweep result.
type ClockRateEstimate struct {
	// ClockRate is the winning candidate in Hz.
	ClockRate float64
	// Error is the winning candidate's mean relative mismatch between
	// implied and observed frame rate (0 = perfect).
	Error float64
	// Frames is the number of frame transitions used.
	Frames int
}

// InferClockRate sweeps the candidates over consecutive pairs of the
// stream's finished frames, read from the frame log in place, and returns
// the best. ok is false with fewer than 8 usable transitions or when even
// the best candidate mismatches badly (no periodic structure).
func (sm *StreamMetrics) InferClockRate() (ClockRateEstimate, bool) {
	return sweepClockRates(sm.frames.Len(), func(i int) (int64, uint32) {
		f := sm.frames.At(i)
		return f.At, f.TS
	})
}

// sweepClockRates is the sweep over n frames, frame(i) giving the i-th's
// completion time and RTP timestamp.
func sweepClockRates(n int, frame func(i int) (at int64, ts uint32)) (ClockRateEstimate, bool) {
	var best ClockRateEstimate
	best.Error = math.Inf(1)
	// Usable transitions: positive time and timestamp deltas, bounded
	// gaps (idle periods would dominate the error).
	type delta struct {
		dt float64 // seconds
		dc float64 // clock ticks
	}
	var deltas []delta
	for i := 1; i < n; i++ {
		prevAt, prevTS := frame(i - 1)
		at, ts := frame(i)
		dt := time.Duration(at - prevAt).Seconds()
		dc := float64(int32(ts - prevTS))
		if dt <= 0 || dt > 2 || dc <= 0 {
			continue
		}
		deltas = append(deltas, delta{dt, dc})
	}
	if len(deltas) < 8 {
		return best, false
	}
	for _, rate := range CandidateClockRates {
		var errSum float64
		for _, d := range deltas {
			implied := d.dc / rate // seconds of media the increment claims
			rel := math.Abs(implied-d.dt) / d.dt
			errSum += rel
		}
		meanErr := errSum / float64(len(deltas))
		if meanErr < best.Error {
			best = ClockRateEstimate{ClockRate: rate, Error: meanErr, Frames: len(deltas)}
		}
	}
	// Jitter perturbs dt; accept up to 25 % mean mismatch.
	return best, best.Error < 0.25
}
