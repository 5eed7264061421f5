package media

import (
	"testing"
	"time"
)

func TestVideoSourceRateAndSizes(t *testing.T) {
	v := NewVideoSource(DefaultVideoConfig(), 1)
	var total time.Duration
	var bytes, keyframes, under2000 int
	const n = 2000
	for i := 0; i < n; i++ {
		f := v.Next()
		total += f.Duration
		bytes += f.Bytes
		if f.Keyframe {
			keyframes++
		}
		if f.Bytes < 2000 {
			under2000++
		}
		if f.Bytes < 200 || f.Bytes > 12000 {
			t.Fatalf("frame size %d out of bounds", f.Bytes)
		}
	}
	fps := float64(n) / total.Seconds()
	if fps < 26 || fps > 30 {
		t.Errorf("fps = %v, want ~28", fps)
	}
	if keyframes != n/120+1 && keyframes != n/120 {
		t.Errorf("keyframes = %d", keyframes)
	}
	// Figure 15c: the majority of video frames are under 2000 bytes.
	if frac := float64(under2000) / n; frac < 0.6 {
		t.Errorf("frames <2000B = %v, want majority", frac)
	}
	// Overall bit rate should be plausible for a camera stream (≥150kbps, ≤2Mbps).
	bps := float64(bytes*8) / total.Seconds()
	if bps < 150_000 || bps > 2_000_000 {
		t.Errorf("bit rate = %v", bps)
	}
}

func TestVideoReducedMode(t *testing.T) {
	v := NewVideoSource(DefaultVideoConfig(), 2)
	if v.CurrentFPS() != 28 {
		t.Errorf("fps = %v", v.CurrentFPS())
	}
	v.SetReduced(true)
	if !v.reduced || v.CurrentFPS() != 14 {
		t.Errorf("reduced fps = %v", v.CurrentFPS())
	}
	var total time.Duration
	for i := 0; i < 280; i++ {
		total += v.Next().Duration
	}
	fps := 280 / total.Seconds()
	if fps < 13 || fps > 15 {
		t.Errorf("reduced effective fps = %v", fps)
	}
}

func TestVideoDeterministic(t *testing.T) {
	a, b := NewVideoSource(DefaultVideoConfig(), 7), NewVideoSource(DefaultVideoConfig(), 7)
	for i := 0; i < 100; i++ {
		fa, fb := a.Next(), b.Next()
		if fa != fb {
			t.Fatalf("frame %d differs: %+v vs %+v", i, fa, fb)
		}
	}
}

func TestAudioAlternatesAndSilencePayload(t *testing.T) {
	a := NewAudioSource(DefaultAudioConfig(), 3)
	var speaking, silent int
	transitions := 0
	prev := a.Speaking()
	for i := 0; i < 30000; i++ { // ≥10 minutes of audio
		f := a.Next()
		if f.Silent {
			silent++
			if f.Duration != SilentPacketInterval {
				t.Fatalf("silent frame duration %v, want %v", f.Duration, SilentPacketInterval)
			}
			if f.Bytes != SilentPayloadBytes {
				t.Fatalf("silent payload %d, want %d", f.Bytes, SilentPayloadBytes)
			}
		} else {
			speaking++
			if f.Duration != 20*time.Millisecond {
				t.Fatalf("speaking frame duration %v", f.Duration)
			}
			if f.Bytes < 20 || f.Bytes > 200 {
				t.Fatalf("speaking payload %d", f.Bytes)
			}
		}
		if a.Speaking() != prev {
			transitions++
			prev = a.Speaking()
		}
	}
	if speaking == 0 || silent == 0 {
		t.Errorf("speaking=%d silent=%d, want both", speaking, silent)
	}
	if transitions < 10 {
		t.Errorf("transitions = %d, want a conversation", transitions)
	}
	// With an 8s/15s time duty cycle but silence packets at 1/5 the
	// cadence, the *packet* share of speaking is much higher than the
	// time share — the Table 3 effect (speaking ≈ 8× silent packets).
	frac := float64(speaking) / float64(speaking+silent)
	if frac < 0.4 || frac > 0.9 {
		t.Errorf("speaking packet fraction = %v", frac)
	}
}

func TestAudioUnknownModeNeverSilent(t *testing.T) {
	cfg := DefaultAudioConfig()
	cfg.AlwaysUnknownMode = true
	a := NewAudioSource(cfg, 4)
	for i := 0; i < 1000; i++ {
		if f := a.Next(); f.Silent {
			t.Fatal("unknown-mode audio produced a silent frame")
		}
	}
}

func TestScreenShareSparseness(t *testing.T) {
	s := NewScreenShareSource(DefaultScreenShareConfig(), 5)
	// Generate ~20 minutes of screen sharing; bucket frames per second.
	perSecond := map[int]int{}
	var under500, frames int
	now := time.Duration(0)
	for now < 20*time.Minute {
		f, gap := s.Next()
		perSecond[int(now/time.Second)]++
		frames++
		if f.Bytes < 500 {
			under500++
		}
		now += gap
	}
	totalSeconds := int(now / time.Second)
	zeroSeconds := totalSeconds - len(perSecond)
	zeroFrac := float64(zeroSeconds) / float64(totalSeconds)
	// §6.2: "roughly 15% of frame rate samples for screen sharing showed
	// a frame rate of zero". Allow a generous band.
	if zeroFrac < 0.05 || zeroFrac > 0.5 {
		t.Errorf("zero-fps seconds = %v, want sparse (≈0.15)", zeroFrac)
	}
	// "over half of screen-sharing frames are smaller than 500 bytes"
	if frac := float64(under500) / float64(frames); frac < 0.5 {
		t.Errorf("frames <500B = %v, want >0.5", frac)
	}
	// ≈half of active seconds should have ≤5 frames.
	var low int
	for _, c := range perSecond {
		if c <= 5 {
			low++
		}
	}
	if frac := float64(low+zeroSeconds) / float64(totalSeconds); frac < 0.4 {
		t.Errorf("seconds with ≤5 fps = %v, want ≈half or more", frac)
	}
}

func TestScreenShareLongTail(t *testing.T) {
	s := NewScreenShareSource(DefaultScreenShareConfig(), 6)
	var max int
	for i := 0; i < 5000; i++ {
		f, _ := s.Next()
		if f.Bytes > max {
			max = f.Bytes
		}
	}
	if max < 5000 {
		t.Errorf("max frame = %d, want long tail past 5000", max)
	}
}
