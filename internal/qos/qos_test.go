package qos

import (
	"testing"
	"time"
)

var t0 = time.Date(2022, 5, 5, 9, 0, 0, 0, time.UTC)

func TestLatencyHeldAcrossRefreshWindow(t *testing.T) {
	r := NewRecorder("c1")
	for i := 0; i < 12; i++ {
		r.Record(t0.Add(time.Duration(i)*time.Second), Stats{LatencyMS: float64(10 + i), VideoFPS: 28})
	}
	if len(r.Entries) != 12 {
		t.Fatalf("entries = %d", len(r.Entries))
	}
	// Seconds 0-4 hold the value sampled at 0; 5-9 the value at 5; etc.
	for i, e := range r.Entries {
		want := float64(10 + (i/5)*5)
		if e.LatencyMS != want {
			t.Errorf("entry %d latency = %v, want %v", i, e.LatencyMS, want)
		}
	}
	// FPS passes through unsmoothed.
	if r.Entries[3].VideoFPS != 28 {
		t.Errorf("fps = %v", r.Entries[3].VideoFPS)
	}
}
