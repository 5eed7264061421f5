package metrics

import (
	"net/netip"
	"testing"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/rtp"
	"zoomlens/internal/zoom"
)

var t0 = time.Date(2022, 5, 5, 9, 0, 0, 0, time.UTC)

// feedVideo pushes n video frames of pktsPerFrame packets each at the
// given fps into sm, returning the time after the last packet.
func feedVideo(sm *StreamMetrics, start time.Time, n, pktsPerFrame int, fps float64, payloadLen int) time.Time {
	seq := uint16(0)
	ts := uint32(10000)
	at := start
	frameGap := time.Duration(float64(time.Second) / fps)
	tsInc := uint32(zoom.VideoClockRate / fps)
	for f := 0; f < n; f++ {
		media := zoom.MediaEncap{
			Type: zoom.TypeVideo, Sequence: seq, Timestamp: ts,
			FrameSequence: uint16(f), PacketsInFrame: uint8(pktsPerFrame),
		}
		for p := 0; p < pktsPerFrame; p++ {
			pkt := rtp.Packet{
				Header: rtp.Header{
					PayloadType:    zoom.PTVideoMain,
					SequenceNumber: seq,
					Timestamp:      ts,
					SSRC:           1,
					Marker:         p == pktsPerFrame-1,
				},
				Payload: make([]byte, payloadLen),
			}
			sm.Observe(at, payloadLen+70, &media, &pkt)
			seq++
			at = at.Add(time.Millisecond) // back-to-back burst
		}
		at = at.Add(frameGap - time.Duration(pktsPerFrame)*time.Millisecond)
		ts += tsInc
	}
	return at
}

func TestFrameAssemblyVideo(t *testing.T) {
	sm := NewStreamMetrics(zoom.TypeVideo)
	feedVideo(sm, t0, 60, 3, 30, 1000)
	sm.Finish()
	if sm.FramesTotal() != 60 {
		t.Fatalf("frames = %d, want 60", sm.FramesTotal())
	}
	for _, f := range all(*sm.Frames()) {
		if !f.Complete {
			t.Errorf("incomplete frame %+v", f)
		}
	}
	// Frame size = 3 packets × 1000 B.
	for _, s := range all(sm.FrameSize().Samples) {
		if s.Value != 3000 {
			t.Fatalf("frame size = %v, want 3000", s.Value)
		}
	}
	// After warm-up the window rate should be ~30 fps.
	last := all(sm.FrameRate().Samples)[sm.FrameRate().Samples.Len()-1]
	if last.Value < 28 || last.Value > 31 {
		t.Errorf("method-1 frame rate = %v, want ~30", last.Value)
	}
	// Method 2 must agree exactly for a constant-rate encoder.
	enc := all(sm.EncoderRate().Samples)[sm.EncoderRate().Samples.Len()-1]
	if enc.Value < 29.9 || enc.Value > 30.1 {
		t.Errorf("method-2 frame rate = %v, want 30", enc.Value)
	}
	// Packetization time 1/30 s ≈ 33.3 ms.
	pt := all(packetizationMS(sm).Samples)[0].Value
	if pt < 33 || pt < 33.0 && pt > 34 {
		t.Errorf("packetization = %v ms", pt)
	}
}

func TestEncoderRateDivergesUnderCongestion(t *testing.T) {
	// §5.2: during congestion delivered rate (method 1) drops below the
	// encoder rate (method 2) until the encoder adapts. Simulate stalled
	// delivery: frames generated at 30 fps but delivered in bursts.
	sm := NewStreamMetrics(zoom.TypeVideo)
	ts := uint32(0)
	at := t0
	for f := 0; f < 30; f++ {
		media := zoom.MediaEncap{Type: zoom.TypeVideo, Timestamp: ts, FrameSequence: uint16(f), PacketsInFrame: 1}
		pkt := rtp.Packet{Header: rtp.Header{PayloadType: zoom.PTVideoMain, SequenceNumber: uint16(f), Timestamp: ts, SSRC: 1, Marker: true}, Payload: make([]byte, 500)}
		sm.Observe(at, 570, &media, &pkt)
		ts += 3000 // encoder says exactly 30 fps
		if f%10 == 9 {
			at = at.Add(800 * time.Millisecond) // stall
		} else {
			at = at.Add(20 * time.Millisecond) // catch-up burst
		}
	}
	sm.Finish()
	// Encoder rate stays 30; delivered rate fluctuates above/below.
	for _, s := range all(sm.EncoderRate().Samples) {
		if s.Value < 29.9 || s.Value > 30.1 {
			t.Fatalf("encoder rate = %v", s.Value)
		}
	}
	var sawLow bool
	for _, s := range all(sm.FrameRate().Samples)[5:] {
		if s.Value < 20 {
			sawLow = true
		}
	}
	if !sawLow {
		t.Error("delivered rate never diverged below the encoder rate under stalls")
	}
}

func TestFrameDelayReflectsRetransmission(t *testing.T) {
	sm := NewStreamMetrics(zoom.TypeVideo)
	media := zoom.MediaEncap{Type: zoom.TypeVideo, Timestamp: 5000, FrameSequence: 1, PacketsInFrame: 3}
	mk := func(seq uint16, marker bool) *rtp.Packet {
		return &rtp.Packet{Header: rtp.Header{PayloadType: zoom.PTVideoMain, SequenceNumber: seq, Timestamp: 5000, SSRC: 1, Marker: marker}, Payload: make([]byte, 500)}
	}
	sm.Observe(t0, 570, &media, mk(0, false))
	sm.Observe(t0.Add(time.Millisecond), 570, &media, mk(1, false))
	// Third packet lost, retransmitted after 100ms+RTT (§5.5).
	sm.Observe(t0.Add(130*time.Millisecond), 570, &media, mk(2, true))
	sm.Finish()
	if sm.FramesTotal() != 1 {
		t.Fatalf("frames = %d", sm.FramesTotal())
	}
	if d := all(frameDelay(sm).Samples)[0].Value; d < 129 || d > 131 {
		t.Errorf("frame delay = %v ms, want ~130", d)
	}
}

func TestDuplicatePacketsNotDoubleCounted(t *testing.T) {
	sm := NewStreamMetrics(zoom.TypeVideo)
	media := zoom.MediaEncap{Type: zoom.TypeVideo, Timestamp: 5000, FrameSequence: 1, PacketsInFrame: 2}
	mk := func(seq uint16) *rtp.Packet {
		return &rtp.Packet{Header: rtp.Header{PayloadType: zoom.PTVideoMain, SequenceNumber: seq, Timestamp: 5000, SSRC: 1}, Payload: make([]byte, 500)}
	}
	sm.Observe(t0, 570, &media, mk(0))
	sm.Observe(t0.Add(time.Millisecond), 570, &media, mk(0)) // retransmission
	sm.Observe(t0.Add(2*time.Millisecond), 570, &media, mk(1))
	sm.Finish()
	if sm.FramesTotal() != 1 {
		t.Fatalf("frames = %d", sm.FramesTotal())
	}
	if sz := all(sm.FrameSize().Samples)[0].Value; sz != 1000 {
		t.Errorf("frame size = %v, want 1000 (dup not double-counted)", sz)
	}
	loss := sm.LossStats()
	if loss.Duplicates != 1 {
		t.Errorf("duplicates = %d, want 1", loss.Duplicates)
	}
}

func TestAudioFramesCompleteViaNextFrame(t *testing.T) {
	// Audio packets carry no packet count and (in Zoom) no marker;
	// frames complete when the next one starts.
	sm := NewStreamMetrics(zoom.TypeAudio)
	at := t0
	ts := uint32(0)
	for i := 0; i < 50; i++ {
		media := zoom.MediaEncap{Type: zoom.TypeAudio, Timestamp: ts}
		pkt := rtp.Packet{Header: rtp.Header{PayloadType: zoom.PTAudioSpeak, SequenceNumber: uint16(i), Timestamp: ts, SSRC: 7}, Payload: make([]byte, 120)}
		sm.Observe(at, 190, &media, &pkt)
		at = at.Add(20 * time.Millisecond)
		ts += 320
	}
	sm.Finish()
	if sm.FramesTotal() != 50 {
		t.Errorf("audio frames = %d, want 50", sm.FramesTotal())
	}
}

func TestMediaRateBins(t *testing.T) {
	sm := NewStreamMetrics(zoom.TypeVideo)
	feedVideo(sm, t0, 90, 2, 30, 1000) // 3 seconds at 30fps, 2kB/frame
	sm.Finish()
	if sm.MediaRate.Samples.Len() < 3 {
		t.Fatalf("rate bins = %d", sm.MediaRate.Samples.Len())
	}
	// Full middle bin: 30 frames × 2000 B × 8 = 480000 bits.
	mid := all(sm.MediaRate.Samples)[1]
	if mid.Value < 400000 || mid.Value > 560000 {
		t.Errorf("media rate = %v bps, want ≈480k", mid.Value)
	}
}

func TestJitterSeriesOnSmoothStreamIsLow(t *testing.T) {
	sm := NewStreamMetrics(zoom.TypeVideo)
	feedVideo(sm, t0, 120, 2, 30, 800)
	sm.Finish()
	if sm.JitterMS.Samples.Len() == 0 {
		t.Fatal("no jitter samples")
	}
	last := all(sm.JitterMS.Samples)[sm.JitterMS.Samples.Len()-1]
	if last.Value > 1.0 {
		t.Errorf("jitter = %v ms on smooth stream", last.Value)
	}
}

func TestFECDoesNotInflateFrames(t *testing.T) {
	sm := NewStreamMetrics(zoom.TypeVideo)
	// One main frame + one FEC packet with the same timestamp.
	media := zoom.MediaEncap{Type: zoom.TypeVideo, Timestamp: 100, FrameSequence: 1, PacketsInFrame: 1}
	main := rtp.Packet{Header: rtp.Header{PayloadType: zoom.PTVideoMain, SequenceNumber: 0, Timestamp: 100, SSRC: 1, Marker: true}, Payload: make([]byte, 900)}
	fec := rtp.Packet{Header: rtp.Header{PayloadType: zoom.PTFEC, SequenceNumber: 0, Timestamp: 100, SSRC: 1}, Payload: make([]byte, 300)}
	sm.Observe(t0, 970, &media, &main)
	sm.Observe(t0.Add(time.Millisecond), 370, &media, &fec)
	sm.Finish()
	if sm.FramesTotal() != 1 {
		t.Errorf("frames = %d, want 1 (FEC must not create frames)", sm.FramesTotal())
	}
	if sm.MediaBytes != 1200 {
		t.Errorf("media bytes = %d, want 1200 (FEC still counts for rate)", sm.MediaBytes)
	}
	if got := substreamPTs(sm); len(got) != 2 || got[0] != 98 || got[1] != 110 {
		t.Errorf("substreams = %v", got)
	}
}

func TestSeriesBin(t *testing.T) {
	var s Series
	s.Add(Nanos(t0.Add(100*time.Millisecond)), 10)
	s.Add(Nanos(t0.Add(600*time.Millisecond)), 20)
	s.Add(Nanos(t0.Add(2500*time.Millisecond)), 30)
	bins := s.Bin(t0, time.Second, "mean")
	if len(bins) != 3 {
		t.Fatalf("bins = %d, want 3 (including empty middle)", len(bins))
	}
	if bins[0].Value != 15 || bins[1].Value != 0 || bins[2].Value != 30 {
		t.Errorf("bins = %+v", bins)
	}
	sums := s.Bin(t0, time.Second, "sum")
	if sums[0].Value != 30 {
		t.Errorf("sum bin = %v", sums[0].Value)
	}
	counts := s.Bin(t0, time.Second, "count")
	if counts[0].Value != 2 || counts[2].Value != 1 {
		t.Errorf("count bins = %+v", counts)
	}
}

func TestCopyMatcherRTT(t *testing.T) {
	cm := NewCopyMatcher()
	up := layers.FiveTuple{Src: netip.MustParseAddr("10.8.1.2"), Dst: netip.MustParseAddr("52.81.3.4"), SrcPort: 52000, DstPort: 8801, Proto: layers.ProtoUDP}
	down := layers.FiveTuple{Src: netip.MustParseAddr("52.81.3.4"), Dst: netip.MustParseAddr("10.8.7.7"), SrcPort: 8801, DstPort: 61000, Proto: layers.ProtoUDP}
	const rttMS = 23
	var got []RTTSample
	for i := 0; i < 100; i++ {
		at := t0.Add(time.Duration(i) * 33 * time.Millisecond)
		cm.Observe(1, up, 98, uint16(i), uint32(i*2970), at)
		if s, ok := cm.Observe(1, down, 98, uint16(i), uint32(i*2970), at.Add(rttMS*time.Millisecond)); ok {
			got = append(got, s)
		}
	}
	if len(got) != 100 {
		t.Fatalf("samples = %d, want 100", len(got))
	}
	for _, s := range got {
		if s.RTT != rttMS*time.Millisecond {
			t.Fatalf("rtt = %v", s.RTT)
		}
	}
	if cm.SeriesMS().Samples.Len() != 100 {
		t.Error("SeriesMS size mismatch")
	}
}

func TestCopyMatcherIgnoresSameFlowAndStale(t *testing.T) {
	cm := NewCopyMatcher()
	up := layers.FiveTuple{Src: netip.MustParseAddr("10.8.1.2"), Dst: netip.MustParseAddr("52.81.3.4"), SrcPort: 52000, DstPort: 8801, Proto: layers.ProtoUDP}
	down := reverse(up)
	cm.Observe(1, up, 98, 7, 100, t0)
	// Retransmission on the same flow: no sample.
	if _, ok := cm.Observe(1, up, 98, 7, 100, t0.Add(time.Millisecond)); ok {
		t.Error("same-flow duplicate produced a sample")
	}
	// A copy arriving after MaxAge: no sample.
	if _, ok := cm.Observe(1, down, 98, 7, 100, t0.Add(time.Minute)); ok {
		t.Error("stale copy produced a sample")
	}
	// Different unified stream: no match.
	cm2 := NewCopyMatcher()
	cm2.Observe(1, up, 98, 9, 500, t0)
	if _, ok := cm2.Observe(2, down, 98, 9, 500, t0.Add(time.Millisecond)); ok {
		t.Error("cross-stream match")
	}
}

func TestFrameRateWindowEviction(t *testing.T) {
	w := new(FrameRateWindow)
	for i := 0; i < 30; i++ {
		w.Add(Nanos(t0.Add(time.Duration(i) * 33 * time.Millisecond)))
	}
	if r := w.Rate(Nanos(t0.Add(time.Second))); r < 28 || r > 31 {
		t.Errorf("rate = %v", r)
	}
	// Ten seconds later everything evicts.
	if r := w.Rate(Nanos(t0.Add(11 * time.Second))); r != 0 {
		t.Errorf("rate after idle = %v, want 0", r)
	}
}

func TestEncoderFrameRate(t *testing.T) {
	e := &EncoderFrameRate{clockRate: 90000}
	if _, _, ok := e.Observe(1000); ok {
		t.Error("first frame should not produce a rate")
	}
	fps, pt, ok := e.Observe(1000 + 3000)
	if !ok || fps != 30 {
		t.Errorf("fps = %v ok=%v", fps, ok)
	}
	if pt != time.Second/30 {
		t.Errorf("packetization = %v", pt)
	}
	// Non-increasing timestamp: not ok.
	if _, _, ok := e.Observe(1000); ok {
		t.Error("backwards timestamp accepted")
	}
}
