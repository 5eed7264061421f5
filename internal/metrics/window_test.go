package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"zoomlens/internal/rtp"
	"zoomlens/internal/zoom"
)

// audioPacket feeds one count-less, marker-less packet of the given
// frame timestamp and payload size.
func audioPacket(sm *StreamMetrics, at time.Time, seq uint16, ts uint32, size int) {
	media := zoom.MediaEncap{Type: zoom.TypeAudio, Timestamp: ts}
	pkt := rtp.Packet{Header: rtp.Header{PayloadType: zoom.PTAudioSpeak, SequenceNumber: seq, Timestamp: ts, SSRC: 7}, Payload: make([]byte, size)}
	sm.Observe(at, size+70, &media, &pkt)
}

// TestFlushOlderThanOrder is the regression test for completion order
// following map iteration: three count-less, marker-less frames are open
// at once (their timestamps run backwards, so none of them flushes the
// others), a fourth starts ahead of all three and flushes them, and they
// must reach the series in the order they started, every time.
func TestFlushOlderThanOrder(t *testing.T) {
	for rep := 0; rep < 200; rep++ {
		sm := NewStreamMetrics(zoom.TypeAudio)
		audioPacket(sm, t0, 1, 3000, 30)
		audioPacket(sm, t0.Add(time.Millisecond), 2, 2000, 20)
		audioPacket(sm, t0.Add(2*time.Millisecond), 3, 1000, 10)
		audioPacket(sm, t0.Add(3*time.Millisecond), 4, 4000, 40)
		if got, want := sm.FrameSize().Values(), []float64{30, 20, 10}; !slices.Equal(got, want) {
			t.Fatalf("repetition %d: stale frames completed as %v, want %v", rep, got, want)
		}
	}
}

// videoFirstPacket feeds the first of two packets of the video frame
// with timestamp ts, so the frame stays open and only jitter sampling
// reacts.
func videoFirstPacket(sm *StreamMetrics, at time.Time, seq uint16, ts uint32) {
	media := zoom.MediaEncap{Type: zoom.TypeVideo, Timestamp: ts, PacketsInFrame: 2}
	pkt := rtp.Packet{Header: rtp.Header{PayloadType: zoom.PTVideoMain, SequenceNumber: seq, Timestamp: ts, SSRC: 9}, Payload: make([]byte, 100)}
	sm.Observe(at, 170, &media, &pkt)
}

// TestTimestampRingHorizon pins the 64-frame horizon of first-packet
// detection: a late packet of any of the 64 most recent frames is not a
// first packet (no jitter sample), one of the 65th-oldest is.
func TestTimestampRingHorizon(t *testing.T) {
	for _, tc := range []struct {
		name  string
		base  uint32 // timestamp of frame 0; frames step by 3000
		late  int    // which frame gets a late packet after frame 64
		fresh bool   // whether that packet is sampled as a first packet
	}{
		{"64th oldest", 90000, 1, false},
		{"65th oldest", 90000, 0, true},
		{"newest", 90000, 64, false},
		{"64th oldest across the 32-bit wrap", 1<<32 - 32*3000, 1, false},
		{"65th oldest across the 32-bit wrap", 1<<32 - 32*3000, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sm := NewStreamMetrics(zoom.TypeVideo)
			at := t0
			for f := 0; f <= 64; f++ {
				videoFirstPacket(sm, at, uint16(2*f), tc.base+uint32(f)*3000)
				at = at.Add(33 * time.Millisecond)
			}
			if n := sm.JitterMS.Samples.Len(); n != 65 {
				t.Fatalf("%d jitter samples after 65 frames, want 65", n)
			}
			videoFirstPacket(sm, at, uint16(2*tc.late+1), tc.base+uint32(tc.late)*3000)
			if got := sm.JitterMS.Samples.Len() == 66; got != tc.fresh {
				t.Errorf("late packet of frame %d sampled as a first packet: %v, want %v", tc.late, got, tc.fresh)
			}
		})
	}
}

// TestTimestampRingAgainstSet holds the ring to a set that never
// forgets, over frame timestamps that advance across the 32-bit wrap
// with late packets reaching back at most 63 distinct frames.
func TestTimestampRingAgainstSet(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var ring tsRing
	all := map[uint32]bool{}
	var order []uint32
	ts := uint32(1<<32 - 500*3000)
	for i := 0; i < 5000; i++ {
		probe := ts
		if len(order) > 0 && rng.Intn(4) == 0 {
			probe = order[len(order)-1-rng.Intn(min(len(order), 64))]
		} else {
			ts += uint32(1+rng.Intn(3)) * 3000
			probe = ts
		}
		if got := ring.seen(probe); got != all[probe] {
			t.Fatalf("step %d: seen(%d) = %v, the set says %v", i, probe, got, all[probe])
		}
		if !all[probe] {
			all[probe] = true
			order = append(order, probe)
		}
	}
}

// TestFrameRateWindowKeepsOnlyTheWindow checks the head index does its
// job: after hours of frames the window holds about a second of them.
func TestFrameRateWindowKeepsOnlyTheWindow(t *testing.T) {
	var w FrameRateWindow
	at := Nanos(t0)
	for i := 0; i < 100_000; i++ {
		at += int64(33 * time.Millisecond)
		if r := w.Add(at); r > 31 {
			t.Fatalf("frame %d: rate %v", i, r)
		}
	}
	if len(w.times) > 64 || cap(w.times) > 128 {
		t.Errorf("window holds %d times (cap %d) for 30 fps", len(w.times), cap(w.times))
	}
}

// TestNanosSaturates: in range Nanos is UnixNano; beyond either end of
// what int64 nanoseconds hold it stops at that end, and a stream handed
// such a time keeps its arithmetic in range.
func TestNanosSaturates(t *testing.T) {
	for _, tc := range []struct {
		t    time.Time
		want int64
	}{
		{t0, t0.UnixNano()},
		{time.Unix(0, math.MaxInt64), math.MaxInt64},
		{time.Unix(0, math.MinInt64), math.MinInt64},
		{time.Date(2262, 4, 11, 23, 47, 15, 999, time.UTC), 9223372035e9 + 999},
		{time.Date(2262, 4, 11, 23, 47, 16, 0, time.UTC), math.MaxInt64},
		{time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC), math.MaxInt64},
		{time.Unix(math.MaxUint64/1_000_000, 0), math.MaxInt64},
		{time.Date(1677, 9, 21, 0, 12, 43, 0, time.UTC), math.MinInt64},
		{time.Time{}, math.MinInt64},
	} {
		if got := Nanos(tc.t); got != tc.want {
			t.Errorf("Nanos(%v) = %d, want %d", tc.t, got, tc.want)
		}
		if got := (Sample{At: tc.want}).Time(); tc.want == tc.t.UnixNano() && !got.Equal(tc.t) {
			t.Errorf("Sample.Time() = %v, want %v", got, tc.t)
		}
	}
	sm := NewStreamMetrics(zoom.TypeVideo)
	observeAt(sm, t0, 1)
	observeAt(sm, time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC), 2)
	observeAt(sm, t0.Add(time.Second), 3)
	sm.Finish()
	for _, s := range all(sm.MediaRate.Samples) {
		if s.At < Nanos(t0)-int64(time.Second) {
			t.Errorf("rate sample at %d: the bin clock wrapped", s.At)
		}
	}
}

// BenchmarkStreamMetricsObserve is the per-packet cost of the layer on
// one 30 fps video stream: 1–12 packets per frame, 1 % same-sequence
// retransmissions, and an FEC substream riding along.
func BenchmarkStreamMetricsObserve(b *testing.B) {
	type packet struct {
		at    time.Time
		media zoom.MediaEncap
		pkt   rtp.Packet
	}
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 1000)
	var trace []packet
	at := t0
	var seq, fecSeq uint16
	for f := 0; len(trace) < 1<<16; f++ {
		ts := uint32(f) * 3000
		n := 1 + rng.Intn(12)
		media := zoom.MediaEncap{Type: zoom.TypeVideo, Timestamp: ts, FrameSequence: uint16(f), PacketsInFrame: uint8(n)}
		for p := 0; p < n; p++ {
			pk := packet{at: at.Add(time.Duration(p) * 100 * time.Microsecond), media: media, pkt: rtp.Packet{
				Header:  rtp.Header{PayloadType: zoom.PTVideoMain, SequenceNumber: seq, Timestamp: ts, SSRC: 9, Marker: p == n-1},
				Payload: payload,
			}}
			trace = append(trace, pk)
			// Zoom retransmits under the same sequence number; here the
			// copy lands while its frame is still open.
			if p < n-1 && rng.Intn(100) == 0 {
				pk.at = pk.at.Add(50 * time.Microsecond)
				trace = append(trace, pk)
			}
			seq++
		}
		fec := packet{at: at.Add(2 * time.Millisecond), media: media, pkt: rtp.Packet{
			Header:  rtp.Header{PayloadType: zoom.PTFEC, SequenceNumber: fecSeq, Timestamp: ts, SSRC: 9},
			Payload: payload[:200],
		}}
		trace = append(trace, fec)
		fecSeq++
		at = at.Add(time.Second / 30)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sm *StreamMetrics
	for i := 0; i < b.N; i++ {
		j := i % len(trace)
		if j == 0 {
			sm = NewStreamMetrics(zoom.TypeVideo)
		}
		p := &trace[j]
		sm.Observe(p.at, len(p.pkt.Payload)+70, &p.media, &p.pkt)
	}
}
