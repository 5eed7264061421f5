package metrics

import (
	"testing"
	"time"

	"zoomlens/internal/rtp"
	"zoomlens/internal/zoom"
)

func TestTalkTrackerSegments(t *testing.T) {
	tr := NewTalkTracker()
	at := t0
	// 2 s speaking, 3 s silence, 1 s speaking.
	for i := 0; i < 100; i++ {
		tr.Observe(at, zoom.PTAudioSpeak)
		at = at.Add(20 * time.Millisecond)
	}
	for i := 0; i < 30; i++ {
		tr.Observe(at, zoom.PTAudioSilent)
		at = at.Add(100 * time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		tr.Observe(at, zoom.PTAudioSpeak)
		at = at.Add(20 * time.Millisecond)
	}
	tr.Finish()
	st := tr.Stats()
	if st.Segments != 2 {
		t.Fatalf("segments = %d, want 2", st.Segments)
	}
	if !st.ModeKnown {
		t.Error("ModeKnown = false")
	}
	// Speaking ≈ 3 s of ≈ 6 s observed.
	if st.Speaking < 2500*time.Millisecond || st.Speaking > 3500*time.Millisecond {
		t.Errorf("speaking = %v", st.Speaking)
	}
	if st.SpeakingFraction < 0.35 || st.SpeakingFraction > 0.65 {
		t.Errorf("fraction = %v", st.SpeakingFraction)
	}
}

func TestTalkTrackerShortGapsMerge(t *testing.T) {
	tr := NewTalkTracker()
	at := t0
	for i := 0; i < 200; i++ {
		tr.Observe(at, zoom.PTAudioSpeak)
		// A 300 ms hiccup every 50 packets stays within the merge gap.
		if i%50 == 49 {
			at = at.Add(300 * time.Millisecond)
		} else {
			at = at.Add(20 * time.Millisecond)
		}
	}
	tr.Finish()
	if st := tr.Stats(); st.Segments != 1 {
		t.Errorf("segments = %d, want 1 (gaps under MergeGap merge)", st.Segments)
	}
}

func TestTalkTrackerUnknownMode(t *testing.T) {
	tr := NewTalkTracker()
	at := t0
	for i := 0; i < 100; i++ {
		tr.Observe(at, zoom.PTAudioMobile)
		at = at.Add(20 * time.Millisecond)
	}
	tr.Finish()
	st := tr.Stats()
	if st.ModeKnown {
		t.Error("PT-113-only stream reported a known mode")
	}
	if st.Segments != 0 {
		t.Errorf("segments = %d for unknown-mode stream", st.Segments)
	}
}

func TestTalkTrackerViaStreamMetrics(t *testing.T) {
	sm := NewStreamMetrics(zoom.TypeAudio)
	if sm.Talk == nil {
		t.Fatal("audio stream has no talk tracker")
	}
	at := t0
	seq := uint16(0)
	push := func(pt uint8, payload int, n int, gap time.Duration) {
		for i := 0; i < n; i++ {
			media := zoom.MediaEncap{Type: zoom.TypeAudio, Timestamp: uint32(seq) * 320}
			pkt := rtp.Packet{Header: rtp.Header{PayloadType: pt, SequenceNumber: seq, Timestamp: uint32(seq) * 320, SSRC: 5}, Payload: make([]byte, payload)}
			sm.Observe(at, payload+70, &media, &pkt)
			seq++
			at = at.Add(gap)
		}
	}
	push(zoom.PTAudioSpeak, 110, 100, 20*time.Millisecond)
	push(zoom.PTAudioSilent, 40, 20, 100*time.Millisecond)
	push(zoom.PTAudioSpeak, 110, 100, 20*time.Millisecond)
	sm.Finish()
	st := sm.Talk.Stats()
	if st.Segments != 2 {
		t.Errorf("segments = %d, want 2", st.Segments)
	}
	// Video streams have no talk tracker.
	if NewStreamMetrics(zoom.TypeVideo).Talk != nil {
		t.Error("video stream has a talk tracker")
	}
}

// TestTalkTrackerHostileClock runs the tracker under five capture clocks:
// monotone, a duplicate stamp, a step 1 s back, one 1 year ahead and one
// to the year 3000. The odd packet goes inside the first speaking spurt
// and again after the last packet. No segment may end before it starts,
// and the observed span may not be shorter than the monotone run's.
func TestTalkTrackerHostileClock(t *testing.T) {
	// 2 s speaking, 3 s silence, 1 s speaking.
	type packet struct {
		at time.Time
		pt uint8
	}
	var run []packet
	at := t0
	for _, part := range []struct {
		pt  uint8
		n   int
		gap time.Duration
	}{{zoom.PTAudioSpeak, 100, 20 * time.Millisecond}, {zoom.PTAudioSilent, 30, 100 * time.Millisecond}, {zoom.PTAudioSpeak, 50, 20 * time.Millisecond}} {
		for range part.n {
			run = append(run, packet{at, part.pt})
			at = at.Add(part.gap)
		}
	}
	span := run[len(run)-1].at.Sub(run[0].at)
	for _, clock := range []struct {
		name string
		odd  func(prev time.Time) time.Time
	}{
		{"monotone", func(prev time.Time) time.Time { return prev.Add(10 * time.Millisecond) }},
		{"duplicate", func(prev time.Time) time.Time { return prev }},
		{"1 s backward", func(prev time.Time) time.Time { return prev.Add(-time.Second) }},
		{"1 year forward", func(prev time.Time) time.Time { return prev.AddDate(1, 0, 0) }},
		{"year 3000", func(time.Time) time.Time { return time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC) }},
	} {
		t.Run(clock.name, func(t *testing.T) {
			tr := NewTalkTracker()
			for i, p := range run {
				tr.Observe(p.at, p.pt)
				if i == 20 || i == len(run)-1 {
					tr.Observe(clock.odd(p.at), zoom.PTAudioSpeak)
				}
			}
			tr.Finish()
			for _, s := range tr.Segments() {
				if s.Duration() < 0 {
					t.Errorf("segment %v → %v has negative length", s.Start, s.End)
				}
			}
			if st := tr.Stats(); st.Speaking < 0 || st.Observed < span {
				t.Errorf("speaking %v, observed %v: want both non-negative and observed at least %v", st.Speaking, st.Observed, span)
			}
		})
	}
}
