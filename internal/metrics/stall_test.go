package metrics

import (
	"testing"
	"time"

	"zoomlens/internal/rtp"
	"zoomlens/internal/zoom"
)

func TestStallDetectorHealthyStreamNeverStalls(t *testing.T) {
	d := new(StallDetector)
	at := t0
	const pt = 33 * time.Millisecond
	for i := 0; i < 1000; i++ {
		at = at.Add(pt)
		if d.ObserveFrame(at, 2*time.Millisecond, pt) {
			t.Fatalf("stall at frame %d on a healthy stream", i)
		}
	}
	if len(d.Events) != 0 || d.stalled {
		t.Errorf("events=%d stalled=%v", len(d.Events), d.stalled)
	}
	if d.buffer <= 0 {
		t.Error("buffer drained on a healthy stream")
	}
}

func TestStallDetectorStallsWhenDeliveryStops(t *testing.T) {
	d := new(StallDetector)
	at := t0
	const pt = 33 * time.Millisecond
	for i := 0; i < 30; i++ {
		at = at.Add(pt)
		d.ObserveFrame(at, 2*time.Millisecond, pt)
	}
	// Delivery freezes for 2 s; the next frame arrives very late.
	at = at.Add(2 * time.Second)
	stalled := d.ObserveFrame(at, 2*time.Second, pt)
	if !stalled && !d.stalled {
		t.Fatal("no stall after a 2-second delivery freeze")
	}
	// Smooth delivery resumes; the stall must close.
	for i := 0; i < 30; i++ {
		at = at.Add(pt / 2) // catch-up burst refills the buffer
		d.ObserveFrame(at, time.Millisecond, pt)
	}
	if d.stalled {
		t.Fatal("stall never closed despite catch-up")
	}
	if len(d.Events) != 1 {
		t.Fatalf("events = %d, want 1", len(d.Events))
	}
	if d.Events[0].Duration <= 0 {
		t.Errorf("stall duration = %v", d.Events[0].Duration)
	}
}

func TestStallDetectorChronicLateness(t *testing.T) {
	// Every frame takes twice its packetization time to deliver: the
	// buffer must drain and stall within a bounded number of frames.
	d := new(StallDetector)
	at := t0
	const pt = 33 * time.Millisecond
	stalledAt := -1
	for i := 0; i < 60; i++ {
		at = at.Add(2 * pt)
		if d.ObserveFrame(at, 2*pt, pt) {
			stalledAt = i
			break
		}
	}
	if stalledAt < 0 {
		t.Fatal("chronic 2× lateness never stalled")
	}
	// 120 ms of initial buffer at a 33 ms/frame deficit: ~4 frames.
	if stalledAt > 10 {
		t.Errorf("stalled after %d frames, want quickly", stalledAt)
	}
}

func TestStallDetectorFinishClosesOpenStall(t *testing.T) {
	d := new(StallDetector)
	at := t0
	const pt = 33 * time.Millisecond
	d.ObserveFrame(at, time.Millisecond, pt)
	at = at.Add(5 * time.Second)
	d.ObserveFrame(at, 5*time.Second, pt)
	if !d.stalled {
		t.Fatal("expected open stall")
	}
	d.Finish(at.Add(time.Second))
	if d.stalled || len(d.Events) != 1 {
		t.Fatalf("stalled=%v events=%d", d.stalled, len(d.Events))
	}
}

func TestStreamMetricsStallIntegration(t *testing.T) {
	sm := NewStreamMetrics(zoom.TypeVideo)
	// 60 healthy frames, then a 3-second freeze, then recovery.
	ts := uint32(0)
	at := t0
	send := func(delay time.Duration) {
		media := zoom.MediaEncap{Type: zoom.TypeVideo, Timestamp: ts, PacketsInFrame: 1}
		pkt := rtp.Packet{Header: rtp.Header{PayloadType: zoom.PTVideoMain, SequenceNumber: uint16(ts / 3000), Timestamp: ts, SSRC: 1, Marker: true}, Payload: make([]byte, 700)}
		sm.Observe(at.Add(delay), 770, &media, &pkt)
		ts += 3000
		at = at.Add(33 * time.Millisecond)
	}
	for i := 0; i < 60; i++ {
		send(0)
	}
	at = at.Add(3 * time.Second)
	for i := 0; i < 90; i++ {
		send(0)
	}
	sm.Finish()
	if len(sm.Stalls()) == 0 {
		t.Error("no stall detected across a 3-second freeze")
	}
	// Audio streams have no clock, hence no ΔRTP to model stalls from.
	audio := NewStreamMetrics(zoom.TypeAudio)
	for i := range 100 {
		media := zoom.MediaEncap{Type: zoom.TypeAudio, Timestamp: uint32(i) * 320}
		pkt := rtp.Packet{Header: rtp.Header{PayloadType: zoom.PTAudioSpeak, SequenceNumber: uint16(i), Timestamp: uint32(i) * 320, SSRC: 2, Marker: true}, Payload: make([]byte, 100)}
		audio.Observe(t0.Add(time.Duration(i)*time.Second), 170, &media, &pkt) // a frame every second: far behind
	}
	audio.Finish()
	if audio.Frames().Len() == 0 || len(audio.Stalls()) != 0 {
		t.Errorf("audio stream: %d frames, %d stalls; want frames and no stall", audio.Frames().Len(), len(audio.Stalls()))
	}
}
