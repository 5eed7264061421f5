package core

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/netsim"
	"zoomlens/internal/pcap"
	"zoomlens/internal/sim"
	"zoomlens/internal/zoom"
)

func analyzerFor(opts sim.Options) *Analyzer {
	return NewAnalyzer(Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	})
}

// runMeetingCapture simulates a two-party on-campus meeting and streams
// the monitor output straight into an analyzer.
func runMeetingCapture(t *testing.T, seconds int, congested bool) (*Analyzer, sim.Options) {
	t.Helper()
	opts := sim.DefaultOptions()
	w := sim.NewWorld(opts)
	a := analyzerFor(opts)
	w.Monitor = a.Packet
	m := w.NewMeeting()
	m.Join(w.NewClient("alice", true), sim.DefaultMediaSet())
	m.Join(w.NewClient("bob", true), sim.DefaultMediaSet())
	if congested {
		w.WanDown.Episodes = append(w.WanDown.Episodes, netsim.Congestion{
			Start:       opts.Start.Add(time.Duration(seconds/3) * time.Second),
			End:         opts.Start.Add(time.Duration(seconds/2) * time.Second),
			ExtraDelay:  25 * time.Millisecond,
			ExtraJitter: 30 * time.Millisecond,
			LossRate:    0.02,
		})
	}
	w.Run(opts.Start.Add(time.Duration(seconds) * time.Second))
	a.Finish()
	return a, opts
}

func TestEndToEndTwoPartyMeeting(t *testing.T) {
	a, _ := runMeetingCapture(t, 30, false)

	sum := a.Summary()
	if sum.Packets < 2000 {
		t.Fatalf("packets = %d", sum.Packets)
	}
	if sum.ZoomUDP == 0 || sum.TCPPackets == 0 {
		t.Fatalf("zoomUDP=%d tcp=%d", sum.ZoomUDP, sum.TCPPackets)
	}
	// Undecodable (control) traffic exists but is well under the ~10 %
	// the paper reports as an upper bound... allow up to 25 %.
	frac := float64(sum.Undecodable) / float64(sum.Packets)
	if frac == 0 || frac > 0.25 {
		t.Errorf("undecodable fraction = %v", frac)
	}
	// 2 participants × 2 media × (uplink + downlink) = 8 stream records.
	if sum.Streams != 8 {
		t.Errorf("streams = %d, want 8", sum.Streams)
	}
	if sum.Meetings != 1 {
		t.Errorf("meetings = %d, want 1", sum.Meetings)
	}
	ms := a.Meetings()[0]
	if got := ms.Participants(); got != 2 {
		t.Errorf("participants = %d", got)
	}
	// 4 unified streams (each participant's audio + video).
	if len(ms.Streams) != 4 {
		t.Errorf("unified streams = %d, want 4", len(ms.Streams))
	}
}

func TestEndToEndVideoMetricsMatchGroundTruth(t *testing.T) {
	a, _ := runMeetingCapture(t, 30, false)
	// Find a video stream with enough frames and check steady-state
	// frame rate ≈ 28 and most frames < 2000 B.
	var checked int
	for _, seg := range a.Streams() {
		id, sm := seg.ID, seg.Metrics
		if id.Key.Type != zoom.TypeVideo {
			continue
		}
		if sm.FramesTotal() < 200 {
			continue
		}
		checked++
		n := sm.FrameRate().Samples.Len()
		var sum float64
		var cnt int
		for _, s := range all(sm.FrameRate().Samples)[n/2:] {
			sum += s.Value
			cnt++
		}
		fps := sum / float64(cnt)
		if fps < 24 || fps > 32 {
			t.Errorf("stream %v: mean fps = %v, want ≈28", id.Key, fps)
		}
		var under2000, frames int
		for _, s := range all(sm.FrameSize().Samples) {
			frames++
			if s.Value < 2000 {
				under2000++
			}
		}
		if float64(under2000)/float64(frames) < 0.5 {
			t.Errorf("stream %v: frames <2000B = %v", id.Key, float64(under2000)/float64(frames))
		}
		// Jitter on an uncongested path stays low (median < 10 ms).
		if sm.JitterMS.Samples.Len() > 10 {
			mid := all(sm.JitterMS.Samples)[sm.JitterMS.Samples.Len()/2].Value
			if mid > 10 {
				t.Errorf("stream %v: median jitter = %v ms", id.Key, mid)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no video streams with enough frames")
	}
}

func TestEndToEndRTTViaStreamCopies(t *testing.T) {
	a, opts := runMeetingCapture(t, 30, false)
	samples := all(a.Copies.Samples)
	if len(samples) < 100 {
		t.Fatalf("rtt samples = %d, want many", len(samples))
	}
	// Monitor↔SFU RTT = 2×WanDelay plus jitter: mean in a plausible band.
	var sum time.Duration
	for _, s := range samples {
		sum += s.RTT
	}
	mean := sum / time.Duration(len(samples))
	lo, hi := 2*opts.WanDelay, 2*(opts.WanDelay+opts.WanJitter)+5*time.Millisecond
	if mean < lo || mean > hi {
		t.Errorf("mean rtt = %v, want in [%v, %v]", mean, lo, hi)
	}
}

func TestEndToEndTCPRTTDecomposition(t *testing.T) {
	a, opts := runMeetingCapture(t, 30, false)
	if len(a.TCP) == 0 {
		t.Fatal("no TCP trackers")
	}
	for client, tr := range a.TCP {
		sp := tr.Split()
		if sp.ToServerSamples == 0 || sp.ToClientSamples == 0 {
			t.Fatalf("client %v: samples %+v", client, sp)
		}
		// Monitor↔server ≈ 2×WanDelay; monitor↔client ≈ 2×CampusDelay.
		if sp.ToServerMean < 2*opts.WanDelay || sp.ToServerMean > 2*(opts.WanDelay+opts.WanJitter)+10*time.Millisecond {
			t.Errorf("server mean = %v", sp.ToServerMean)
		}
		if sp.ToClientMean < 2*opts.CampusDelay || sp.ToClientMean > 2*(opts.CampusDelay+opts.CampusJitter)+10*time.Millisecond {
			t.Errorf("client mean = %v", sp.ToClientMean)
		}
		if sp.ToServerMean <= sp.ToClientMean {
			t.Errorf("server leg (%v) should exceed client leg (%v)", sp.ToServerMean, sp.ToClientMean)
		}
	}
}

func TestEndToEndTable2And3Shares(t *testing.T) {
	a, _ := runMeetingCapture(t, 40, false)
	sum := a.Summary()
	shares := a.Flows.EncapShares(sum.Packets, sum.Bytes)
	byType := map[zoom.MediaType]float64{}
	var mediaPkts float64
	for _, s := range shares {
		byType[s.Type] = s.BytesPct
		mediaPkts += s.PacketsPct
	}
	if !(byType[zoom.TypeVideo] > byType[zoom.TypeAudio]) {
		t.Errorf("video bytes %% (%v) should dominate audio (%v)", byType[zoom.TypeVideo], byType[zoom.TypeAudio])
	}
	// Decoded media packets make up the large majority of all packets
	// (paper: 90 %).
	if mediaPkts < 60 {
		t.Errorf("decodable share = %v%%", mediaPkts)
	}
	pts := a.Flows.PayloadTypeShares(sum.Packets, sum.Bytes)
	var sawMain, sawFEC, sawSpeak bool
	for _, p := range pts {
		switch p.Substream {
		case zoom.SubVideoMain:
			sawMain = true
		case zoom.SubVideoFEC:
			sawFEC = true
		case zoom.SubAudioSpeaking:
			sawSpeak = true
		}
	}
	if !sawMain || !sawFEC || !sawSpeak {
		t.Errorf("substream coverage: main=%v fec=%v speak=%v", sawMain, sawFEC, sawSpeak)
	}
	// Table 3 ordering: video main is the most common substream.
	if pts[0].Substream != zoom.SubVideoMain {
		t.Errorf("top substream = %v", pts[0].Substream)
	}
}

func TestEndToEndJitterRisesUnderCongestion(t *testing.T) {
	a, opts := runMeetingCapture(t, 60, true)
	// Jitter samples on downlink video streams (SFU→client crosses the
	// congested WanDown) must be higher during the episode.
	congStart := opts.Start.Add(20 * time.Second)
	congEnd := opts.Start.Add(30 * time.Second)
	var quiet, busy []float64
	for _, seg := range a.Streams() {
		id, sm := seg.ID, seg.Metrics
		if id.Key.Type != zoom.TypeVideo {
			continue
		}
		for _, s := range all(sm.JitterMS.Samples) {
			switch {
			case s.Time().After(congStart.Add(3*time.Second)) && s.Time().Before(congEnd):
				busy = append(busy, s.Value)
			case s.Time().Before(congStart):
				quiet = append(quiet, s.Value)
			}
		}
	}
	if len(quiet) == 0 || len(busy) == 0 {
		t.Fatalf("quiet=%d busy=%d", len(quiet), len(busy))
	}
	mq, mb := mean(quiet), mean(busy)
	if mb < mq*2 {
		t.Errorf("jitter quiet=%v busy=%v: congestion invisible", mq, mb)
	}
}

func TestEndToEndLossProducesDuplicates(t *testing.T) {
	opts := sim.DefaultOptions()
	opts.WanLoss = 0.03
	w := sim.NewWorld(opts)
	a := analyzerFor(opts)
	w.Monitor = a.Packet
	m := w.NewMeeting()
	m.Join(w.NewClient("a", true), sim.DefaultMediaSet())
	m.Join(w.NewClient("b", true), sim.DefaultMediaSet())
	w.Run(opts.Start.Add(30 * time.Second))
	a.Finish()

	var dups uint64
	for _, seg := range a.Streams() {
		dups += seg.Metrics.LossStats().Duplicates
	}
	if dups == 0 {
		t.Error("no duplicates observed despite lossy WAN (§5.5: retransmissions appear as duplicates)")
	}
}

func TestPCAPRoundTripThroughAnalyzer(t *testing.T) {
	// Write the monitor stream to a pcap, then analyze the file: results
	// must match the live analysis.
	opts := sim.DefaultOptions()
	w := sim.NewWorld(opts)
	var buf bytes.Buffer
	pw, err := pcap.NewWriter(&buf, pcap.WriterOptions{Nanosecond: true})
	if err != nil {
		t.Fatal(err)
	}
	live := analyzerFor(opts)
	w.Monitor = func(at time.Time, frame []byte) {
		live.Packet(at, frame)
		if err := pw.WriteRecord(at, frame); err != nil {
			t.Fatal(err)
		}
	}
	m := w.NewMeeting()
	m.Join(w.NewClient("a", true), sim.DefaultMediaSet())
	m.Join(w.NewClient("b", true), sim.DefaultMediaSet())
	w.Run(opts.Start.Add(10 * time.Second))
	live.Finish()

	fromFile := analyzerFor(opts)
	if err := fromFile.ReadPCAP(&buf); err != nil {
		t.Fatal(err)
	}
	ls, fs := live.Summary(), fromFile.Summary()
	if ls != fs {
		t.Errorf("live %+v != file %+v", ls, fs)
	}
}

func TestP2PMeetingAnalyzedEndToEnd(t *testing.T) {
	opts := sim.DefaultOptions()
	w := sim.NewWorld(opts)
	a := analyzerFor(opts)
	w.Monitor = a.Packet
	m := w.NewMeeting()
	m.EnableP2P(8 * time.Second)
	m.Join(w.NewClient("a", true), sim.DefaultMediaSet())
	m.Join(w.NewClient("b", false), sim.DefaultMediaSet())
	w.Run(opts.Start.Add(30 * time.Second))
	a.Finish()

	if a.STUNPackets == 0 {
		t.Error("no STUN packets")
	}
	// P2P flows (neither endpoint a Zoom server) must appear.
	var sawP2PFlow bool
	for _, f := range a.Flows.Flows() {
		if f.P2P > 0 {
			sawP2PFlow = true
		}
	}
	if !sawP2PFlow {
		t.Error("no P2P-layout packets analyzed")
	}
	// The grouping heuristic must still see ONE meeting across the
	// SFU→P2P transition.
	if got := len(a.Meetings()); got != 1 {
		t.Errorf("meetings = %d, want 1 across mode switch", got)
	}
}

func TestSummaryDuration(t *testing.T) {
	a, opts := runMeetingCapture(t, 10, false)
	d := a.Summary().Duration
	if d < 8*time.Second || d > 10*time.Second {
		t.Errorf("duration = %v", d)
	}
	_ = opts
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func BenchmarkAnalyzerThroughput(b *testing.B) {
	// Pre-generate a 10-second capture, then measure pure analysis speed.
	opts := sim.DefaultOptions()
	w := sim.NewWorld(opts)
	type rec struct {
		at    time.Time
		frame []byte
	}
	var recs []rec
	w.Monitor = func(at time.Time, frame []byte) {
		cp := make([]byte, len(frame))
		copy(cp, frame)
		recs = append(recs, rec{at, cp})
	}
	m := w.NewMeeting()
	m.Join(w.NewClient("a", true), sim.DefaultMediaSet())
	m.Join(w.NewClient("b", true), sim.DefaultMediaSet())
	w.Run(opts.Start.Add(10 * time.Second))

	var totalBytes int64
	for _, r := range recs {
		totalBytes += int64(len(r.frame))
	}
	b.SetBytes(totalBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := analyzerFor(opts)
		for _, r := range recs {
			a.Packet(r.at, r.frame)
		}
		a.Finish()
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// TestClockRateDiscoveryEndToEnd reproduces the §5.2 parameter sweep on
// simulated traffic: video streams must infer the 90 kHz clock, audio
// the simulator's 16 kHz.
func TestClockRateDiscoveryEndToEnd(t *testing.T) {
	a, _ := runMeetingCapture(t, 20, false)
	var videoChecked, audioChecked int
	for _, seg := range a.Streams() {
		id, sm := seg.ID, seg.Metrics
		if sm.Frames().Len() < 100 {
			continue
		}
		est, ok := sm.InferClockRate()
		if !ok {
			continue
		}
		switch id.Key.Type {
		case zoom.TypeVideo:
			videoChecked++
			if est.ClockRate != 90000 {
				t.Errorf("video stream %v inferred %v Hz", id.Key, est.ClockRate)
			}
		case zoom.TypeAudio:
			audioChecked++
			if est.ClockRate != 16000 {
				t.Errorf("audio stream %v inferred %v Hz", id.Key, est.ClockRate)
			}
		}
	}
	if videoChecked == 0 || audioChecked == 0 {
		t.Errorf("checked video=%d audio=%d streams", videoChecked, audioChecked)
	}
}

// TestTalkTimeEndToEnd verifies §4.2.3's talk quantification on
// simulated audio: speaking fractions must be sane and segments found.
func TestTalkTimeEndToEnd(t *testing.T) {
	a, _ := runMeetingCapture(t, 60, false)
	var checked int
	for _, seg := range a.Streams() {
		id, sm := seg.ID, seg.Metrics
		if id.Key.Type != zoom.TypeAudio {
			continue
		}
		if sm.Talk == nil || sm.Packets < 300 {
			continue
		}
		st := sm.Talk.Stats()
		if !st.ModeKnown {
			continue
		}
		checked++
		if st.SpeakingFraction < 0 || st.SpeakingFraction > 1 {
			t.Errorf("stream %v speaking fraction = %v", id.Key, st.SpeakingFraction)
		}
		if st.Speaking > 0 && st.Segments == 0 {
			t.Errorf("stream %v has speaking time but no segments", id.Key)
		}
	}
	if checked == 0 {
		t.Error("no audio streams checked")
	}
}

// TestScreenShareAnalyzedEndToEnd covers the marker-based frame
// assembly path (type 13 has no packets-in-frame field) and the sparse
// frame-rate behaviour of §6.2.
func TestScreenShareAnalyzedEndToEnd(t *testing.T) {
	opts := sim.DefaultOptions()
	w := sim.NewWorld(opts)
	a := analyzerFor(opts)
	w.Monitor = a.Packet
	m := w.NewMeeting()
	presenter := sim.DefaultMediaSet()
	presenter.Screen = true
	m.Join(w.NewClient("presenter", true), presenter)
	m.Join(w.NewClient("viewer", true), sim.DefaultMediaSet())
	w.Run(opts.Start.Add(60 * time.Second))
	a.Finish()

	var checked int
	for _, seg := range a.Streams() {
		id, sm := seg.ID, seg.Metrics
		if id.Key.Type != zoom.TypeScreenShare {
			continue
		}
		if sm.Packets < 20 {
			continue
		}
		checked++
		if sm.FramesTotal() == 0 {
			t.Errorf("screen share stream %v assembled no frames", id.Key)
		}
		// Frame sizes have the documented small-median shape.
		var under500, frames int
		for _, s := range all(sm.FrameSize().Samples) {
			frames++
			if s.Value < 500 {
				under500++
			}
		}
		if frames > 20 && float64(under500)/float64(frames) < 0.4 {
			t.Errorf("stream %v: small-frame share = %v", id.Key, float64(under500)/float64(frames))
		}
	}
	if checked == 0 {
		t.Fatal("no screen share streams analyzed")
	}

	// While the screen share is active, other participants' video drops
	// to thumbnail rate (a user-driven effect, §5.1).
	var sawReduced bool
	for _, seg := range a.Streams() {
		id, sm := seg.ID, seg.Metrics
		if id.Key.Type != zoom.TypeVideo {
			continue
		}
		for _, s := range all(sm.EncoderRate().Samples) {
			if s.Value > 12 && s.Value < 16 {
				sawReduced = true
			}
		}
	}
	if !sawReduced {
		t.Error("no thumbnail-rate video while screen sharing")
	}
}

// TestNATMergesMeetingsEndToEnd reproduces the Figure 9 limitation on
// real packets: two independent meetings whose campus participants share
// one NAT address are (incorrectly but expectedly) merged by the
// grouping heuristic, while the same meetings from distinct addresses
// stay separate.
func TestNATMergesMeetingsEndToEnd(t *testing.T) {
	run := func(nat bool) int {
		opts := sim.DefaultOptions()
		w := sim.NewWorld(opts)
		a := analyzerFor(opts)
		w.Monitor = a.Packet
		natAddr := netip.MustParseAddr("10.8.200.1")
		mk := func(name string) *sim.Client {
			if nat {
				return w.NewClientWithAddr(name, true, natAddr)
			}
			return w.NewClient(name, true)
		}
		m1 := w.NewMeeting()
		m1.Join(mk("a1"), sim.DefaultMediaSet())
		m1.Join(w.NewClient("a2", false), sim.DefaultMediaSet())
		m2 := w.NewMeeting()
		m2.Join(mk("b1"), sim.DefaultMediaSet())
		m2.Join(w.NewClient("b2", false), sim.DefaultMediaSet())
		w.Run(opts.Start.Add(15 * time.Second))
		a.Finish()
		return len(a.Meetings())
	}
	if got := run(false); got != 2 {
		t.Errorf("distinct addresses: %d meetings, want 2", got)
	}
	if got := run(true); got != 1 {
		t.Errorf("behind NAT: %d meetings, want 1 (the Figure 9 merge)", got)
	}
}

// TestCompactionBoundsMemoryWithoutChangingResults runs two meetings in
// sequence, the second with a participant whose streams pause for longer
// than the TTL and resume, with and without a 30 s FlowTTL at 1, 2 and 4
// workers.
// Eviction must move streams between containers and never out of a
// report: the archive fills and the live map shrinks, while totals,
// meetings, the ID set of Streams, each ID's packet sum, the snapshot's
// cumulative packets and every participant's video attributes stay those
// of the engine that never evicts. The engine evicts on one clock, so at
// 2 and 4 workers the report is byte-identical to the 1-worker TTL run's,
// segment by segment.
func TestCompactionBoundsMemoryWithoutChangingResults(t *testing.T) {
	type result struct {
		a        *Analyzer
		packets  map[flow.MediaStreamID]uint64
		segments map[flow.MediaStreamID]int
		snapshot uint64
		zeroFPS  map[netip.Addr]bool
	}
	run := func(ttl time.Duration, workers int) result {
		opts := sim.DefaultOptions()
		w := sim.NewWorld(opts)
		cfg := Config{ZoomNetworks: []netip.Prefix{opts.ZoomNet}, CampusNetworks: []netip.Prefix{opts.CampusNet}, FlowTTL: ttl}
		pa := NewParallelAnalyzer(cfg, workers)
		w.Monitor = pa.Packet
		m1 := w.NewMeeting()
		c1, c2 := w.NewClient("a", true), w.NewClient("b", true)
		m1.Join(c1, sim.DefaultMediaSet())
		m1.Join(c2, sim.DefaultMediaSet())
		w.Run(opts.Start.Add(20 * time.Second))
		m1.Leave(c1)
		m1.Leave(c2)
		// A quiet minute, then a second meeting whose second participant
		// drops out for 70 s and rejoins on the same ports and SSRCs.
		w.Eng.Schedule(opts.Start.Add(80*time.Second), func() {
			m2 := w.NewMeeting()
			m2.Join(w.NewClient("c", true), sim.DefaultMediaSet())
			d := w.NewClient("d", true)
			m2.Join(d, sim.DefaultMediaSet())
			w.Eng.Schedule(opts.Start.Add(90*time.Second), func() { m2.Leave(d) })
			w.Eng.Schedule(opts.Start.Add(160*time.Second), func() { m2.Join(d, sim.DefaultMediaSet()) })
		})
		end := opts.Start.Add(180 * time.Second)
		w.Run(end)
		res := result{packets: map[flow.MediaStreamID]uint64{}, segments: map[flow.MediaStreamID]int{}, zeroFPS: map[netip.Addr]bool{}}
		for _, ms := range pa.Snapshot(end, time.Second) {
			res.snapshot += ms.Packets
		}
		pa.Finish()
		res.a = pa.Result()
		var prev StreamSegment
		for _, seg := range res.a.Streams() {
			res.packets[seg.ID] += seg.Metrics.Packets
			res.segments[seg.ID]++
			// A segment brings its own bounds, and an ID's segments come
			// oldest first with the live one last.
			if seg.FirstSeen.IsZero() || seg.LastSeen.Before(seg.FirstSeen) {
				t.Errorf("ttl=%v workers=%d: segment of %v spans %v..%v", ttl, workers, seg.ID, seg.FirstSeen, seg.LastSeen)
			}
			if prev.ID == seg.ID && (!prev.Archived || prev.LastSeen.After(seg.FirstSeen)) {
				t.Errorf("ttl=%v workers=%d: segments of %v out of order: %+v then %+v", ttl, workers, seg.ID, prev, seg)
			}
			prev = seg
		}
		for _, rep := range res.a.MeetingReports() {
			for _, p := range rep.Participants {
				res.zeroFPS[p.Client] = p.VideoFPSMean == 0
			}
		}
		return res
	}
	plain := run(0, 1)
	var seq []byte
	for _, workers := range []int{1, 2, 4} {
		got := run(30*time.Second, workers)
		if report := reportBytes(t, got.a); workers == 1 {
			seq = report
		} else if !bytes.Equal(report, seq) {
			t.Errorf("workers=%d: the TTL run's report differs from the 1-worker TTL run's (%d vs %d bytes)", workers, len(report), len(seq))
		}
		if len(got.a.Finished) == 0 {
			t.Fatalf("workers=%d: nothing archived", workers)
		}
		if liveC, liveP := len(got.a.StreamMetrics), len(plain.a.StreamMetrics); liveC >= liveP {
			t.Errorf("workers=%d: live streams with compaction = %d, without = %d", workers, liveC, liveP)
		}
		// Totals identical: evicted streams leave the live count, nothing else.
		sp, sc := plain.a.Summary(), got.a.Summary()
		if sp.Packets != sc.Packets || sp.ZoomUDP != sc.ZoomUDP || sp.Meetings != sc.Meetings {
			t.Errorf("workers=%d: summaries diverge: %+v vs %+v", workers, sp, sc)
		}
		if len(got.packets) != len(plain.packets) {
			t.Errorf("workers=%d: Streams lists %d stream IDs, want %d", workers, len(got.packets), len(plain.packets))
		}
		resumed := 0
		for id, want := range plain.packets {
			if got.packets[id] != want {
				t.Errorf("workers=%d: stream %v: segments sum to %d packets, want %d", workers, id, got.packets[id], want)
			}
			if got.segments[id] > 1 {
				resumed++
			}
		}
		if resumed == 0 {
			t.Errorf("workers=%d: no stream idled out and resumed as a second segment", workers)
		}
		if got.snapshot != plain.snapshot {
			t.Errorf("workers=%d: snapshot cumulative packets = %d, want %d", workers, got.snapshot, plain.snapshot)
		}
		for client, zero := range got.zeroFPS {
			if zero && !plain.zeroFPS[client] {
				t.Errorf("workers=%d: participant %v reports no video frame rate under eviction", workers, client)
			}
		}
		if len(got.zeroFPS) != len(plain.zeroFPS) {
			t.Errorf("workers=%d: %d participants reported, want %d", workers, len(got.zeroFPS), len(plain.zeroFPS))
		}
	}
}

// TestRetxHeuristicEndToEnd: on a lossy WAN, frames whose packets were
// retransmitted show the §5.5 delay signature (> RTT + ~100 ms), and
// the heuristic's suspects correlate with actual duplicate counts.
func TestRetxHeuristicEndToEnd(t *testing.T) {
	opts := sim.DefaultOptions()
	opts.WanLoss = 0.04
	w := sim.NewWorld(opts)
	a := analyzerFor(opts)
	w.Monitor = a.Packet
	m := w.NewMeeting()
	m.Join(w.NewClient("a", true), sim.DefaultMediaSet())
	m.Join(w.NewClient("b", true), sim.DefaultMediaSet())
	w.Run(opts.Start.Add(40 * time.Second))
	a.Finish()

	// Path RTT from the copy matcher.
	var rttSum time.Duration
	for _, s := range all(a.Copies.Samples) {
		rttSum += s.RTT
	}
	if a.Copies.Samples.Len() == 0 {
		t.Fatal("no RTT samples")
	}
	rtt := rttSum / time.Duration(a.Copies.Samples.Len())

	var strong, analyzed int
	for _, seg := range a.Streams() {
		id, sm := seg.ID, seg.Metrics
		if id.Key.Type != zoom.TypeVideo {
			continue
		}
		est := sm.EstimateRetransmissions(rtt)
		analyzed += est.FramesAnalyzed
		strong += est.StrongRetxFrames
	}
	if analyzed == 0 {
		t.Fatal("no multi-packet frames analyzed")
	}
	if strong == 0 {
		t.Error("no strong retransmission signatures despite 4% WAN loss")
	}
	// Sanity: the rate is a minority (loss is 4%, frames ~2 pkts).
	if frac := float64(strong) / float64(analyzed); frac > 0.5 {
		t.Errorf("strong fraction = %v, implausibly high", frac)
	}
}
