package sim

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/netsim"
	"zoomlens/internal/stun"
	"zoomlens/internal/zoom"
)

// captured collects monitor output in decoded form.
type captured struct {
	at      time.Time
	pkt     layers.Packet
	zoomPkt *zoom.Packet // nil if not parseable as Zoom
	isSTUN  bool
}

func runCapture(t *testing.T, w *World, until time.Time) []captured {
	t.Helper()
	var out []captured
	parser := &layers.Parser{}
	w.Monitor = func(at time.Time, frame []byte) {
		// The frame is lent for the call, and c keeps slices of it.
		frame = append([]byte(nil), frame...)
		var c captured
		c.at = at
		if err := parser.Parse(frame, &c.pkt); err != nil {
			t.Fatalf("monitor saw unparseable frame: %v", err)
		}
		if c.pkt.HasUDP {
			if stun.Is(c.pkt.Payload) {
				c.isSTUN = true
			} else if zp, err := zoom.ParsePacket(c.pkt.Payload, zoom.ModeAuto); err == nil {
				c.zoomPkt = &zp
			}
		}
		out = append(out, c)
	}
	w.Run(until)
	return out
}

func TestTwoPartySFUMeetingProducesDecodableTraffic(t *testing.T) {
	opts := DefaultOptions()
	w := NewWorld(opts)
	m := w.NewMeeting()
	a := w.NewClient("alice", true)
	b := w.NewClient("bob", true)
	m.Join(a, DefaultMediaSet())
	m.Join(b, DefaultMediaSet())

	caps := runCapture(t, w, opts.Start.Add(20*time.Second))
	if len(caps) < 1000 {
		t.Fatalf("monitor saw %d packets, want ≥1000", len(caps))
	}

	var media, rtcp, opaque, tcp, toSFU, fromSFU int
	types := map[zoom.MediaType]int{}
	ssrcs := map[uint32]bool{}
	for _, c := range caps {
		if c.pkt.HasTCP {
			tcp++
			continue
		}
		if c.isSTUN {
			continue
		}
		if c.zoomPkt == nil {
			opaque++
			continue
		}
		zp := c.zoomPkt
		if !zp.ServerBased {
			t.Fatal("SFU meeting produced P2P-layout packet")
		}
		if zp.SFU.FromSFU() {
			fromSFU++
		} else {
			toSFU++
		}
		types[zp.Media.Type]++
		if zp.IsMedia() {
			media++
			ssrcs[zp.RTP.SSRC] = true
		} else {
			rtcp++
		}
	}
	if media == 0 || rtcp == 0 || tcp == 0 {
		t.Fatalf("media=%d rtcp=%d tcp=%d", media, rtcp, tcp)
	}
	if types[zoom.TypeVideo] == 0 || types[zoom.TypeAudio] == 0 {
		t.Errorf("types = %v", types)
	}
	if types[zoom.TypeScreenShare] != 0 {
		t.Errorf("unexpected screen share: %v", types)
	}
	// Both directions visible (uplinks and SFU-forwarded downlinks).
	if toSFU == 0 || fromSFU == 0 {
		t.Errorf("toSFU=%d fromSFU=%d", toSFU, fromSFU)
	}
	// 2 participants × (audio + video) = 4 SSRCs, FEC shares SSRC.
	if len(ssrcs) != 4 {
		t.Errorf("ssrcs = %d, want 4", len(ssrcs))
	}
	// Opaque control traffic exists but is a modest minority.
	frac := float64(opaque) / float64(len(caps))
	if frac <= 0 || frac > 0.25 {
		t.Errorf("opaque fraction = %v", frac)
	}
}

func TestVideoDominatesBytes(t *testing.T) {
	opts := DefaultOptions()
	w := NewWorld(opts)
	m := w.NewMeeting()
	m.Join(w.NewClient("a", true), DefaultMediaSet())
	m.Join(w.NewClient("b", true), DefaultMediaSet())
	byType := map[zoom.MediaType]uint64{}
	parser := &layers.Parser{}
	w.Monitor = func(at time.Time, frame []byte) {
		var p layers.Packet
		if parser.Parse(frame, &p) != nil || !p.HasUDP {
			return
		}
		if zp, err := zoom.ParsePacket(p.Payload, zoom.ModeAuto); err == nil {
			byType[zp.Media.Type] += uint64(len(frame))
		}
	}
	w.Run(opts.Start.Add(30 * time.Second))
	if byType[zoom.TypeVideo] <= 5*byType[zoom.TypeAudio] {
		t.Errorf("video bytes %d should dominate audio bytes %d", byType[zoom.TypeVideo], byType[zoom.TypeAudio])
	}
}

func TestP2PSwitchAndRevert(t *testing.T) {
	opts := DefaultOptions()
	w := NewWorld(opts)
	m := w.NewMeeting()
	m.EnableP2P(10 * time.Second)
	a := w.NewClient("a", true)
	b := w.NewClient("b", false) // external peer so P2P crosses the border
	m.Join(a, DefaultMediaSet())
	m.Join(b, DefaultMediaSet())

	// Before the switch delay: SFU mode.
	w.Run(opts.Start.Add(5 * time.Second))
	if m.IsP2P() {
		t.Fatal("switched to P2P too early")
	}
	w.Run(opts.Start.Add(15 * time.Second))
	if !m.IsP2P() {
		t.Fatal("did not switch to P2P")
	}
	portDuringP2P := a.mediaPort
	if portDuringP2P != a.p2pPort {
		t.Error("P2P flow does not use the STUN-announced port")
	}

	// Third participant forces revert, permanently.
	c := w.NewClient("c", true)
	m.Join(c, DefaultMediaSet())
	if m.IsP2P() {
		t.Fatal("still P2P after third join")
	}
	m.Leave(c)
	w.Run(opts.Start.Add(40 * time.Second))
	if m.IsP2P() {
		t.Error("returned to P2P after revert (must stay on SFU, §3)")
	}
}

func TestP2PTrafficVisibleAtMonitorAndSTUNPrecedes(t *testing.T) {
	opts := DefaultOptions()
	w := NewWorld(opts)
	m := w.NewMeeting()
	m.EnableP2P(8 * time.Second)
	a := w.NewClient("a", true)
	b := w.NewClient("b", false)
	m.Join(a, DefaultMediaSet())
	m.Join(b, DefaultMediaSet())
	caps := runCapture(t, w, opts.Start.Add(25*time.Second))

	var stunAt, firstP2PAt time.Time
	var p2pCount int
	for _, c := range caps {
		if c.isSTUN && stunAt.IsZero() {
			stunAt = c.at
			if c.pkt.UDP.DstPort != stun.Port && c.pkt.UDP.SrcPort != stun.Port {
				t.Error("STUN packet not on port 3478")
			}
		}
		if c.zoomPkt != nil && !c.zoomPkt.ServerBased {
			if firstP2PAt.IsZero() {
				firstP2PAt = c.at
			}
			p2pCount++
		}
	}
	if stunAt.IsZero() {
		t.Fatal("no STUN exchange seen at monitor")
	}
	if p2pCount == 0 {
		t.Fatal("no P2P media seen at monitor")
	}
	if !stunAt.Before(firstP2PAt) {
		t.Error("STUN exchange did not precede P2P media")
	}
}

func TestIntraCampusP2PInvisible(t *testing.T) {
	opts := DefaultOptions()
	w := NewWorld(opts)
	m := w.NewMeeting()
	m.EnableP2P(5 * time.Second)
	a := w.NewClient("a", true)
	b := w.NewClient("b", true) // both on campus
	m.Join(a, DefaultMediaSet())
	m.Join(b, DefaultMediaSet())
	caps := runCapture(t, w, opts.Start.Add(20*time.Second))
	if !m.IsP2P() {
		t.Fatal("did not switch")
	}
	for _, c := range caps {
		if c.zoomPkt != nil && !c.zoomPkt.ServerBased && c.at.After(opts.Start.Add(6*time.Second)) {
			t.Fatal("intra-campus P2P media visible at the border monitor")
		}
	}
}

func TestRetransmissionsProduceDuplicateSeqAtMonitor(t *testing.T) {
	opts := DefaultOptions()
	opts.WanLoss = 0.05 // lossy WAN: duplicates guaranteed
	w := NewWorld(opts)
	m := w.NewMeeting()
	m.Join(w.NewClient("a", true), DefaultMediaSet())
	m.Join(w.NewClient("b", true), DefaultMediaSet())

	type key struct {
		ssrc uint32
		pt   uint8
		seq  uint16
		dir  uint8
		dst  uint16
	}
	seen := map[key]int{}
	dups := 0
	parser := &layers.Parser{}
	w.Monitor = func(at time.Time, frame []byte) {
		var p layers.Packet
		if parser.Parse(frame, &p) != nil || !p.HasUDP {
			return
		}
		zp, err := zoom.ParsePacket(p.Payload, zoom.ModeAuto)
		if err != nil || !zp.IsMedia() {
			return
		}
		k := key{zp.RTP.SSRC, zp.RTP.PayloadType, zp.RTP.SequenceNumber, zp.SFU.Direction, p.UDP.DstPort}
		seen[k]++
		if seen[k] == 2 {
			dups++
		}
	}
	w.Run(opts.Start.Add(30 * time.Second))
	if dups == 0 {
		t.Error("no duplicate sequence numbers at monitor despite downstream loss")
	}
}

func TestRateAdaptationUnderCongestion(t *testing.T) {
	opts := DefaultOptions()
	w := NewWorld(opts)
	m := w.NewMeeting()
	a := w.NewClient("a", true)
	b := w.NewClient("b", true)
	m.Join(a, DefaultMediaSet())
	m.Join(b, DefaultMediaSet())

	// Congest the downlink from t+20s to t+40s (like the paper's
	// bandwidth-test cross-traffic).
	ep := netsim.Congestion{
		Start:       opts.Start.Add(20 * time.Second),
		End:         opts.Start.Add(40 * time.Second),
		ExtraDelay:  30 * time.Millisecond,
		ExtraJitter: 40 * time.Millisecond,
		LossRate:    0.02,
	}
	w.WanDown.Episodes = append(w.WanDown.Episodes, ep)
	w.Run(opts.Start.Add(70 * time.Second))

	// Ground truth from the receiver's QoS log: fps must dip during the
	// episode and recover after.
	entries := b.recv.QoS.Entries
	if len(entries) < 60 {
		t.Fatalf("qos entries = %d", len(entries))
	}
	avg := func(from, to time.Duration) float64 {
		var sum float64
		var n int
		for _, e := range entries {
			d := e.Time.Sub(opts.Start)
			if d >= from && d < to {
				sum += e.VideoFPS
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	before := avg(10*time.Second, 20*time.Second)
	during := avg(28*time.Second, 40*time.Second)
	after := avg(55*time.Second, 70*time.Second)
	if before < 24 {
		t.Errorf("pre-congestion fps = %v, want ≈28", before)
	}
	if during > before-6 {
		t.Errorf("during-congestion fps = %v vs before %v: no adaptation visible", during, before)
	}
	if after < before-6 {
		t.Errorf("post-congestion fps = %v, did not recover (before=%v)", after, before)
	}
}

func TestQoSLatencyHeldForFiveSeconds(t *testing.T) {
	opts := DefaultOptions()
	w := NewWorld(opts)
	m := w.NewMeeting()
	a := w.NewClient("a", true)
	b := w.NewClient("b", true)
	m.Join(a, DefaultMediaSet())
	m.Join(b, DefaultMediaSet())
	w.Run(opts.Start.Add(30 * time.Second))
	entries := b.recv.QoS.Entries
	if len(entries) < 20 {
		t.Fatalf("entries = %d", len(entries))
	}
	changes := 0
	for i := 1; i < len(entries); i++ {
		if entries[i].LatencyMS != entries[i-1].LatencyMS {
			changes++
		}
	}
	// With a 5-second refresh, at most ~1/5 of the entries change.
	if changes > len(entries)/4 {
		t.Errorf("latency changed %d times in %d entries; refresh hold broken", changes, len(entries))
	}
}

// TestDeterminismAcrossRuns holds a seed to its whole output: packet and
// byte counts, and every frame byte the monitor sees — including the
// STUN transaction IDs of a P2P exchange, which used to come from
// crypto/rand and made two runs of one seed differ.
func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (uint64, uint64, [sha256.Size]byte, int) {
		opts := DefaultOptions()
		opts.Seed = 77
		w := NewWorld(opts)
		m := w.NewMeeting()
		m.EnableP2P(4 * time.Second)
		m.Join(w.NewClient("a", true), DefaultMediaSet())
		m.Join(w.NewClient("b", false), DefaultMediaSet())
		h := sha256.New()
		stuns := 0
		parser := &layers.Parser{}
		w.Monitor = func(at time.Time, frame []byte) {
			h.Write(frame)
			var pkt layers.Packet
			if parser.Parse(frame, &pkt) == nil && pkt.HasUDP && stun.Is(pkt.Payload) {
				stuns++
			}
		}
		w.Run(opts.Start.Add(10 * time.Second))
		return w.MonitorPackets, w.MonitorBytes, [sha256.Size]byte(h.Sum(nil)), stuns
	}
	p1, b1, h1, s1 := run()
	p2, b2, h2, _ := run()
	if p1 != p2 || b1 != b2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", p1, b1, p2, b2)
	}
	if s1 == 0 {
		t.Fatal("no STUN exchange crossed the monitor; the frame digest proves nothing about transaction IDs")
	}
	if h1 != h2 {
		t.Errorf("same seed, different frame bytes: %x vs %x", h1[:8], h2[:8])
	}
}

func TestLeaveStopsStreams(t *testing.T) {
	opts := DefaultOptions()
	w := NewWorld(opts)
	m := w.NewMeeting()
	a := w.NewClient("a", true)
	b := w.NewClient("b", true)
	m.Join(a, DefaultMediaSet())
	m.Join(b, DefaultMediaSet())
	w.Run(opts.Start.Add(5 * time.Second))
	m.Leave(a)
	countAt := w.MonitorPackets
	w.Run(opts.Start.Add(6 * time.Second))
	afterLeave := w.MonitorPackets - countAt
	// Only b's uplink remains (no downlinks since a left).
	w.Run(opts.Start.Add(20 * time.Second))
	if len(m.participants) != 1 {
		t.Errorf("participants = %d", len(m.participants))
	}
	if afterLeave == 0 {
		t.Error("remaining participant stopped sending")
	}
}

func TestMuteAndCameraToggles(t *testing.T) {
	opts := DefaultOptions()
	w := NewWorld(opts)
	m := w.NewMeeting()
	a := w.NewClient("a", true)
	b := w.NewClient("b", true)
	m.Join(a, DefaultMediaSet())
	m.Join(b, DefaultMediaSet())

	type counts struct{ audio, video int }
	perSecond := map[int64]*counts{}
	parser := &layers.Parser{}
	w.Monitor = func(at time.Time, frame []byte) {
		var p layers.Packet
		if parser.Parse(frame, &p) != nil || !p.HasUDP {
			return
		}
		zp, err := zoom.ParsePacket(p.Payload, zoom.ModeAuto)
		if err != nil || !zp.IsMedia() {
			return
		}
		// Only a's uplink streams.
		if p.SrcAddr() != a.Addr {
			return
		}
		c := perSecond[at.Unix()]
		if c == nil {
			c = &counts{}
			perSecond[at.Unix()] = c
		}
		switch zp.Media.Type {
		case zoom.TypeAudio:
			c.audio++
		case zoom.TypeVideo:
			c.video++
		}
	}

	w.Eng.Schedule(opts.Start.Add(5*time.Second), func() { a.SetMuted(true) })
	w.Eng.Schedule(opts.Start.Add(10*time.Second), func() { a.SetMuted(false) })
	w.Eng.Schedule(opts.Start.Add(15*time.Second), func() { a.SetVideoEnabled(false) })
	w.Run(opts.Start.Add(20 * time.Second))

	get := func(sec int64) counts {
		c := perSecond[opts.Start.Unix()+sec]
		if c == nil {
			return counts{}
		}
		return *c
	}
	if get(3).audio == 0 {
		t.Error("no audio before mute")
	}
	if got := get(7); got.audio != 0 {
		t.Errorf("audio while muted: %d pkts", got.audio)
	}
	if get(12).audio == 0 {
		t.Error("no audio after unmute")
	}
	if get(12).video == 0 {
		t.Error("no video before camera off")
	}
	if got := get(18); got.video != 0 {
		t.Errorf("video after camera off: %d pkts", got.video)
	}
}

// adaptedSenderSeconds runs a parties-way SFU meeting for 30 s and counts
// the sender-seconds a video sender spent adapted to network feedback
// (congested), sampled once a second. congest adds a WanDown congestion
// episode from 10 s to 20 s.
func adaptedSenderSeconds(seed int64, parties int, congest bool) int {
	opts := DefaultOptions()
	opts.Seed = seed
	w := NewWorld(opts)
	m := w.NewMeeting()
	clients := make([]*Client, parties)
	for i := range clients {
		clients[i] = w.NewClient(fmt.Sprintf("p%d", i), true)
		m.Join(clients[i], DefaultMediaSet())
	}
	if congest {
		w.WanDown.Episodes = append(w.WanDown.Episodes, netsim.Congestion{
			Start:       opts.Start.Add(10 * time.Second),
			End:         opts.Start.Add(20 * time.Second),
			ExtraDelay:  30 * time.Millisecond,
			ExtraJitter: 40 * time.Millisecond,
			LossRate:    0.02,
		})
	}
	adapted := 0
	var sample func()
	sample = func() {
		for _, c := range clients {
			for _, s := range c.senders {
				if s.video != nil && s.congested {
					adapted++
				}
			}
		}
		w.Eng.After(time.Second, sample)
	}
	w.Eng.After(time.Second, sample)
	w.Run(opts.Start.Add(30 * time.Second))
	return adapted
}

// TestCleanMeetingsAdaptNoSender: on clean links no video sender adapts,
// whatever the meeting's size. A receiver's jitter compares each video
// frame with the previous frame of the same sender: RTP timestamps of
// different SSRCs have unrelated bases, so comparing across senders
// reads seconds of jitter in every meeting of three or more. A WanDown
// congestion episode does adapt a sender, so the check is not vacuous.
func TestCleanMeetingsAdaptNoSender(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for parties := 2; parties <= 6; parties++ {
			if n := adaptedSenderSeconds(seed, parties, false); n != 0 {
				t.Errorf("seed %d, %d parties, clean links: %d adapted sender-seconds, want 0", seed, parties, n)
			}
		}
		if n := adaptedSenderSeconds(seed, 3, true); n == 0 {
			t.Errorf("seed %d, 3 parties, congested downlink: no sender adapted", seed)
		}
	}
}
