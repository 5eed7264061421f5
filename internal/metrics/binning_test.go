package metrics

import (
	"testing"
	"time"

	"zoomlens/internal/rtp"
	"zoomlens/internal/zoom"
)

// TestBinPreOriginSample is the regression test for the truncation bug:
// int64(d/width) rounds toward zero, so a sample 0.5s before the origin
// used to land in bin 0 alongside samples from [origin, origin+1s) and
// contaminate its aggregate. Floor division must put it in bin -1.
func TestBinPreOriginSample(t *testing.T) {
	origin := time.Unix(1700000000, 0)
	var s Series
	s.Add(Nanos(origin.Add(-500*time.Millisecond)), 100) // belongs in bin -1
	s.Add(Nanos(origin.Add(200*time.Millisecond)), 10)   // bin 0
	s.Add(Nanos(origin.Add(700*time.Millisecond)), 20)   // bin 0

	got := s.Bin(origin, time.Second, "mean")
	if len(got) != 2 {
		t.Fatalf("got %d bins, want 2: %+v", len(got), got)
	}
	if want := origin.Add(-time.Second); !got[0].Time().Equal(want) || got[0].Value != 100 {
		t.Errorf("bin -1 = %v/%v, want %v/100", got[0].Time(), got[0].Value, want)
	}
	if !got[1].Time().Equal(origin) || got[1].Value != 15 {
		t.Errorf("bin 0 = %v/%v, want %v/15 (pre-origin sample leaked in?)", got[1].Time(), got[1].Value, origin)
	}
}

// TestBinPreOriginExactBoundary checks that a sample exactly on a
// negative bin boundary does not get shifted an extra bin down by the
// floor correction (d%width == 0 must not decrement).
func TestBinPreOriginExactBoundary(t *testing.T) {
	origin := time.Unix(1700000000, 0)
	var s Series
	s.Add(Nanos(origin.Add(-2*time.Second)), 7) // exactly bin -2
	s.Add(Nanos(origin), 3)                     // bin 0

	got := s.Bin(origin, time.Second, "sum")
	if len(got) != 3 {
		t.Fatalf("got %d bins, want 3: %+v", len(got), got)
	}
	if want := origin.Add(-2 * time.Second); !got[0].Time().Equal(want) || got[0].Value != 7 {
		t.Errorf("bin -2 = %v/%v, want %v/7", got[0].Time(), got[0].Value, want)
	}
	if got[1].Value != 0 {
		t.Errorf("bin -1 = %v, want empty 0", got[1].Value)
	}
	if got[2].Value != 3 {
		t.Errorf("bin 0 = %v, want 3", got[2].Value)
	}
}

func observeAt(sm *StreamMetrics, at time.Time, seq uint16) {
	media := &zoom.MediaEncap{}
	pkt := &rtp.Packet{
		Header:  rtp.Header{PayloadType: 98, SequenceNumber: seq, Timestamp: uint32(seq) * 3000},
		Payload: make([]byte, 200),
	}
	sm.Observe(at, 250, media, pkt)
}

// TestRateSeriesLongGapCapped is the regression test for unbounded
// gap-fill: one packet, 12 idle hours, one packet used to append one
// zero-rate sample per elapsed second (~43k per series). With the idle
// cap the series must skip the silent span.
func TestRateSeriesLongGapCapped(t *testing.T) {
	sm := NewStreamMetrics(zoom.TypeVideo)
	start := time.Unix(1700000000, 0)
	observeAt(sm, start, 1)
	observeAt(sm, start.Add(12*time.Hour), 2)
	sm.Finish()

	if n := sm.MediaRate.Samples.Len(); n > 4 {
		t.Fatalf("MediaRate has %d samples after a 12h gap, want a handful (gap-fill not capped)", n)
	}
	// Both active seconds must still be represented.
	times := map[int64]bool{}
	for _, s := range all(sm.MediaRate.Samples) {
		times[s.At] = true
	}
	if !times[start.UnixNano()] || !times[start.Add(12*time.Hour).UnixNano()] {
		t.Errorf("active seconds missing from rate series: %+v", all(sm.MediaRate.Samples))
	}
}

// TestRateSeriesShortGapUnchanged verifies gaps below the cap still
// gap-fill with explicit zero samples, as the Figure 8-style rate plots
// rely on.
func TestRateSeriesShortGapUnchanged(t *testing.T) {
	sm := NewStreamMetrics(zoom.TypeVideo)
	start := time.Unix(1700000000, 0)
	observeAt(sm, start, 1)
	observeAt(sm, start.Add(5*time.Second), 2)
	sm.Finish()

	if n := sm.MediaRate.Samples.Len(); n != 6 {
		t.Fatalf("MediaRate has %d samples across a 5s gap, want 6 (zero-filled)", n)
	}
	for i, s := range all(sm.MediaRate.Samples)[1:5] {
		if s.Value != 0 {
			t.Errorf("gap sample %d = %v, want 0", i+1, s.Value)
		}
	}
}
