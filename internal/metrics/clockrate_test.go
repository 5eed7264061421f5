package metrics

import (
	"math/rand"
	"testing"
	"time"

	"zoomlens/internal/rtp"
	"zoomlens/internal/zoom"
)

// FrameObservation is one completed frame's (arrival time in Unix
// nanoseconds, RTP timestamp) pair, in order.
type FrameObservation struct {
	At int64
	TS uint32
}

// InferClockRate is the sweep over a list of frames instead of a stream's
// frame log: the synthetic clocks below, and the frame-log oracle's own
// observations (framelog_test.go).
func InferClockRate(frames []FrameObservation) (ClockRateEstimate, bool) {
	return sweepClockRates(len(frames), func(i int) (int64, uint32) { return frames[i].At, frames[i].TS })
}

func framesAtClock(rate float64, fps float64, n int, jitter time.Duration, seed int64) []FrameObservation {
	rng := rand.New(rand.NewSource(seed))
	var out []FrameObservation
	at := t0
	ts := uint32(1000)
	period := time.Duration(float64(time.Second) / fps)
	for i := 0; i < n; i++ {
		j := time.Duration(0)
		if jitter > 0 {
			j = time.Duration(rng.Int63n(int64(jitter)))
		}
		out = append(out, FrameObservation{At: Nanos(at.Add(j)), TS: ts})
		at = at.Add(period)
		ts += uint32(rate / fps)
	}
	return out
}

func TestInferClockRate90kVideo(t *testing.T) {
	frames := framesAtClock(90000, 28, 200, 4*time.Millisecond, 1)
	est, ok := InferClockRate(frames)
	if !ok {
		t.Fatalf("inference failed: %+v", est)
	}
	if est.ClockRate != 90000 {
		t.Errorf("clock = %v, want 90000", est.ClockRate)
	}
}

func TestInferClockRateAudio(t *testing.T) {
	// 16 kHz audio at 50 packets/s.
	frames := framesAtClock(16000, 50, 300, time.Millisecond, 2)
	est, ok := InferClockRate(frames)
	if !ok || est.ClockRate != 16000 {
		t.Errorf("clock = %+v ok=%v, want 16000", est, ok)
	}
}

func TestInferClockRateAllCandidatesRecoverable(t *testing.T) {
	for i, rate := range CandidateClockRates {
		frames := framesAtClock(rate, 25, 200, 2*time.Millisecond, int64(10+i))
		est, ok := InferClockRate(frames)
		if !ok || est.ClockRate != rate {
			t.Errorf("rate %v: got %+v ok=%v", rate, est, ok)
		}
	}
}

func TestInferClockRateRejectsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var frames []FrameObservation
	at := t0
	for i := 0; i < 100; i++ {
		at = at.Add(time.Duration(1+rng.Intn(80)) * time.Millisecond)
		frames = append(frames, FrameObservation{At: Nanos(at), TS: rng.Uint32() % (1 << 20)})
	}
	// Mostly decreasing/random timestamps: few usable transitions or a
	// huge error either way.
	if est, ok := InferClockRate(frames); ok && est.Error < 0.1 {
		t.Errorf("noise inferred confidently: %+v", est)
	}
}

func TestInferClockRateTooFewFrames(t *testing.T) {
	frames := framesAtClock(90000, 30, 5, 0, 4)
	if _, ok := InferClockRate(frames); ok {
		t.Error("inference succeeded on 5 frames")
	}
}

func TestInferClockRateFromStreamMetrics(t *testing.T) {
	sm := NewStreamMetrics(zoom.TypeVideo)
	at := t0
	ts := uint32(0)
	for i := 0; i < 150; i++ {
		media := zoom.MediaEncap{Type: zoom.TypeVideo, Timestamp: ts, PacketsInFrame: 1}
		pkt := rtp.Packet{Header: rtp.Header{PayloadType: zoom.PTVideoMain, SequenceNumber: uint16(i), Timestamp: ts, SSRC: 1, Marker: true}, Payload: make([]byte, 500)}
		sm.Observe(at, 570, &media, &pkt)
		at = at.Add(time.Second / 28)
		ts += 90000 / 28
	}
	sm.Finish()
	if n := sm.Frames().Len(); n < 100 {
		t.Fatalf("frames = %d", n)
	}
	est, ok := sm.InferClockRate()
	if !ok || est.ClockRate != 90000 {
		t.Errorf("est = %+v ok=%v", est, ok)
	}
}
