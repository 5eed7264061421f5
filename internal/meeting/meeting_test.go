package meeting

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/zoom"
)

var t0 = time.Date(2022, 5, 5, 10, 0, 0, 0, time.UTC)

func ft(src string, sport uint16, dst string, dport uint16) layers.FiveTuple {
	return layers.FiveTuple{
		Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr(dst),
		SrcPort: sport, DstPort: dport, Proto: layers.ProtoUDP,
	}
}

var (
	sfu      = "52.81.3.4"
	c1       = "10.8.1.2"
	c2       = "10.8.7.7"
	vKey     = zoom.StreamKey{SSRC: 100, Type: zoom.TypeVideo}
	up1      = ft(c1, 52000, sfu, 8801) // C1 → SFU
	down2    = ft(sfu, 8801, c2, 61000) // SFU → C2 (copy of C1's stream)
	serverIs = func(a netip.Addr) bool { return a == netip.MustParseAddr(sfu) }
)

// zoomRecords is d's stream records with the Zoom client derivation,
// ClientOf(serverIs), whatever the stream's key.
func zoomRecords(d *Dedup) []StreamRecord {
	clientOf := ClientOf(serverIs)
	return d.RecordsBy(func(ft layers.FiveTuple, _ zoom.StreamKey) netip.AddrPort { return clientOf(ft) })
}

func feed(d *Dedup, flow layers.FiveTuple, key zoom.StreamKey, start time.Time, startSeq uint16, startTS uint32, n int) UnifiedID {
	var last UnifiedID
	for i := 0; i < n; i++ {
		last = d.Observe(StreamObs{
			Time: start.Add(time.Duration(i) * 33 * time.Millisecond),
			Flow: flow, Key: key,
			Seq: startSeq + uint16(i), TS: startTS + uint32(i)*2970,
		})
	}
	return last
}

func TestDedupLinksSFUCopy(t *testing.T) {
	d := NewDedup()
	id1 := feed(d, up1, vKey, t0, 0, 10000, 30)
	// The SFU-forwarded copy appears 40 ms later with the same SSRC and
	// nearly the same timestamps on a different 5-tuple.
	id2 := feed(d, down2, vKey, t0.Add(40*time.Millisecond), 0, 10000, 30)
	if id1 != id2 {
		t.Errorf("copy got unified ID %d, want %d", id2, id1)
	}
}

func TestDedupLinksP2PTransition(t *testing.T) {
	d := NewDedup()
	id1 := feed(d, up1, vKey, t0, 0, 10000, 30)
	// Meeting switches to P2P: new 5-tuple with fresh ports, same SSRC,
	// RTP timeline continues.
	p2p := ft(c1, 52999, "203.0.113.9", 47000)
	id2 := feed(d, p2p, vKey, t0.Add(time.Second), 30, 10000+30*2970, 30)
	if id1 != id2 {
		t.Errorf("post-transition stream got ID %d, want %d", id2, id1)
	}
}

func TestDedupDistinguishesSameSSRCFarApart(t *testing.T) {
	d := NewDedup()
	id1 := feed(d, up1, vKey, t0, 0, 10000, 10)
	// Same SSRC in a *different meeting* hours later with unrelated
	// timestamps: must NOT link (SSRCs are only unique per meeting).
	other := ft(c2, 61500, sfu, 8801)
	id2 := feed(d, other, vKey, t0.Add(3*time.Hour), 0, 3_000_000_000, 10)
	if id1 == id2 {
		t.Error("unrelated streams with recycled SSRC were linked")
	}
}

func TestDedupTimestampWindowEnforced(t *testing.T) {
	d := NewDedup()
	id1 := feed(d, up1, vKey, t0, 0, 10000, 10)
	// Same SSRC immediately after, but timestamps far outside the window.
	other := ft(c2, 61500, sfu, 8801)
	id2 := feed(d, other, vKey, t0.Add(time.Second), 0, 10000+100*zoom.VideoClockRate, 10)
	if id1 == id2 {
		t.Error("streams with distant RTP timestamps were linked")
	}
}

func TestDedupSameFlowRestartKeepsID(t *testing.T) {
	d := NewDedup()
	id1 := feed(d, up1, vKey, t0, 0, 10000, 5)
	id2 := feed(d, up1, vKey, t0.Add(time.Minute), 5, 10000+5*2970, 5)
	if id1 != id2 {
		t.Error("same (flow, SSRC) stream changed unified ID")
	}
}

func TestClientOf(t *testing.T) {
	co := ClientOf(serverIs)
	if got := co(up1); got != netip.MustParseAddrPort("10.8.1.2:52000") {
		t.Errorf("client of uplink = %v", got)
	}
	if got := co(down2); got != netip.MustParseAddrPort("10.8.7.7:61000") {
		t.Errorf("client of downlink = %v", got)
	}
	p2p := ft(c1, 52999, "203.0.113.9", 47000)
	if got := co(p2p); got != netip.MustParseAddrPort("10.8.1.2:52999") {
		t.Errorf("client of p2p = %v", got)
	}
}

// TestGroupTwoPartyMeeting reproduces Figure 8: two participants, each
// sending an audio stream through the SFU, observed on four flows (two
// uplinks, two downlinks). The heuristic must infer a single meeting with
// two clients.
func TestGroupTwoPartyMeeting(t *testing.T) {
	d := NewDedup()
	aKey1 := zoom.StreamKey{SSRC: 200, Type: zoom.TypeAudio}
	aKey2 := zoom.StreamKey{SSRC: 201, Type: zoom.TypeAudio}
	up1 := ft(c1, 52000, sfu, 8801)
	down1 := ft(sfu, 8801, c1, 52000)
	up2 := ft(c2, 61000, sfu, 8801)
	down2 := ft(sfu, 8801, c2, 61000)

	feed(d, up1, aKey1, t0, 0, 5000, 50)                            // S1: C1 → SFU
	feed(d, down2, aKey1, t0.Add(45*time.Millisecond), 0, 5000, 50) // S1 copy: SFU → C2
	feed(d, up2, aKey2, t0.Add(time.Second), 0, 9000, 50)           // S2: C2 → SFU
	feed(d, down1, aKey2, t0.Add(time.Second+45*time.Millisecond), 0, 9000, 50)

	meetings := Group(zoomRecords(d))
	if len(meetings) != 1 {
		t.Fatalf("meetings = %d, want 1", len(meetings))
	}
	m := meetings[0]
	if got := m.Participants(); got != 2 {
		t.Errorf("participants = %d, want 2", got)
	}
	if len(m.Streams) != 2 {
		t.Errorf("unified streams = %d, want 2", len(m.Streams))
	}
}

func TestGroupSeparateMeetingsStaySeparate(t *testing.T) {
	d := NewDedup()
	feed(d, ft(c1, 52000, sfu, 8801), zoom.StreamKey{SSRC: 300, Type: zoom.TypeVideo}, t0, 0, 1000, 20)
	feed(d, ft(c2, 61000, sfu, 8801), zoom.StreamKey{SSRC: 301, Type: zoom.TypeVideo}, t0.Add(time.Minute), 0, 900000, 20)
	meetings := Group(zoomRecords(d))
	if len(meetings) != 2 {
		t.Fatalf("meetings = %d, want 2", len(meetings))
	}
}

func TestGroupMergesViaSharedClient(t *testing.T) {
	// A client adds screen share mid-meeting: new SSRC, same client
	// IP+port → same meeting.
	d := NewDedup()
	feed(d, ft(c1, 52000, sfu, 8801), zoom.StreamKey{SSRC: 400, Type: zoom.TypeVideo}, t0, 0, 1000, 20)
	feed(d, ft(c1, 52000, sfu, 8801), zoom.StreamKey{SSRC: 401, Type: zoom.TypeScreenShare}, t0.Add(30*time.Second), 0, 500000, 20)
	meetings := Group(zoomRecords(d))
	if len(meetings) != 1 {
		t.Fatalf("meetings = %d, want 1", len(meetings))
	}
	if len(meetings[0].Streams) != 2 {
		t.Errorf("streams = %d, want 2", len(meetings[0].Streams))
	}
}

func TestGroupMergeViaUnifiedStream(t *testing.T) {
	// Two clients first appear as separate meetings; a stream copy that
	// links them (same unified ID seen at both) must merge the meetings.
	g := NewGrouper()
	cl1 := netip.MustParseAddrPort("10.8.1.2:52000")
	cl2 := netip.MustParseAddrPort("10.8.7.7:61000")
	m1 := g.Add(StreamRecord{Unified: 1, Client: cl1, Start: t0, End: t0.Add(time.Minute)})
	m2 := g.Add(StreamRecord{Unified: 2, Client: cl2, Start: t0, End: t0.Add(time.Minute)})
	if m1 == m2 {
		t.Fatal("expected two meetings initially")
	}
	// Stream 1's copy arrives at client 2.
	m3 := g.Add(StreamRecord{Unified: 1, Client: cl2, Start: t0.Add(time.Second), End: t0.Add(time.Minute)})
	ms := g.Meetings()
	if len(ms) != 1 {
		t.Fatalf("meetings after merge = %d, want 1", len(ms))
	}
	if m3 != ms[0].ID {
		t.Errorf("Add returned %d, meeting is %d", m3, ms[0].ID)
	}
	if got := ms[0].Participants(); got != 2 {
		t.Errorf("participants = %d", got)
	}
}

// TestGroupNATLimitation documents the Figure 9 limitation: two distinct
// meetings behind one NAT IP are (incorrectly but expectedly) merged.
func TestGroupNATLimitation(t *testing.T) {
	g := NewGrouper()
	nat := netip.MustParseAddr("10.8.200.1")
	g.Add(StreamRecord{Unified: 1, Client: netip.AddrPortFrom(nat, 40000), Start: t0, End: t0.Add(time.Minute)})
	g.Add(StreamRecord{Unified: 2, Client: netip.AddrPortFrom(nat, 40001), Start: t0, End: t0.Add(time.Minute)})
	if got := len(g.Meetings()); got != 1 {
		t.Errorf("meetings = %d; the NAT limitation should merge them", got)
	}
}

func TestMeetingTimeSpan(t *testing.T) {
	g := NewGrouper()
	cl := netip.MustParseAddrPort("10.8.1.2:52000")
	g.Add(StreamRecord{Unified: 1, Client: cl, Start: t0.Add(time.Minute), End: t0.Add(2 * time.Minute)})
	g.Add(StreamRecord{Unified: 2, Client: cl, Start: t0, End: t0.Add(90 * time.Second)})
	m := g.Meetings()[0]
	if !m.Start.Equal(t0) || !m.End.Equal(t0.Add(2*time.Minute)) {
		t.Errorf("span = [%v, %v]", m.Start, m.End)
	}
}

func BenchmarkDedupObserve(b *testing.B) {
	d := NewDedup()
	obs := StreamObs{Flow: up1, Key: vKey, TS: 1000}
	at := t0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs.Time = at
		obs.Seq = uint16(i)
		obs.TS = uint32(i) * 2970
		d.Observe(obs)
		at = at.Add(33 * time.Millisecond)
	}
}

// indexed reports whether the stream on flow is in the copy-lookup index.
func indexed(d *Dedup, flow layers.FiveTuple, key zoom.StreamKey) bool {
	for _, s := range d.bySSRC[key] {
		if s.id.Flow == flow {
			return true
		}
	}
	return false
}

// TestDedupAgesOnItsOwnWindow pins the ageing rule: the sweep runs on
// the ageEvery-th observation, unlinks what has been idle for more than
// linkWindow at that observation's timestamp and nothing else, keeps the
// records, and the stream's next packet links it again.
func TestDedupAgesOnItsOwnWindow(t *testing.T) {
	d := NewDedup()
	idle := feed(d, up1, vKey, t0, 0, 10000, 10)
	busy := ft(c2, 61500, sfu, 8801)
	aKey := zoom.StreamKey{SSRC: 7, Type: zoom.TypeAudio}
	late := t0.Add(linkWindow + time.Second)
	for i := 10; i < ageEvery-1; i++ {
		d.Observe(StreamObs{Time: late, Flow: busy, Key: aKey, Seq: uint16(i), TS: uint32(i)})
	}
	if !indexed(d, up1, vKey) {
		t.Fatal("stream unlinked before the sweep's observation")
	}
	d.Observe(StreamObs{Time: late, Flow: busy, Key: aKey})
	if indexed(d, up1, vKey) || !indexed(d, busy, aKey) {
		t.Fatalf("after the sweep: idle stream indexed %v (want false), busy stream indexed %v (want true)", indexed(d, up1, vKey), indexed(d, busy, aKey))
	}
	if d.Len() != 2 {
		t.Fatalf("ageing dropped a record: %d left", d.Len())
	}
	if id := feed(d, up1, vKey, late, 10, 10000+10*2970, 1); id != idle {
		t.Errorf("resumed stream changed unified ID %d → %d", idle, id)
	}
	if !indexed(d, up1, vKey) {
		t.Error("resumed stream was not linked again")
	}
	// Linked again, it takes copies like a stream that never left.
	if id := feed(d, down2, vKey, late.Add(40*time.Millisecond), 10, 10000+10*2970, 1); id != idle {
		t.Errorf("copy of the resumed stream got unified ID %d, want %d", id, idle)
	}
}

// TestDedupAgeingIsInvisible: under non-decreasing timestamps, sweeping
// the index — here before every single observation, the most a cadence
// could do — changes no unified ID against a detector that never sweeps
// (the sequences stay under ageEvery observations). The workload has
// what ageing could break: streams that pause past the window and
// resume, and copies that appear on new five-tuples before and after.
func TestDedupAgeingIsInvisible(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type src struct {
			flow layers.FiveTuple
			key  zoom.StreamKey
			ts   uint32
		}
		var srcs []src
		never, swept := NewDedup(), NewDedup()
		at := t0
		for i := 0; i < ageEvery-1; i++ {
			at = at.Add(time.Duration(rng.Intn(600)) * time.Millisecond)
			if len(srcs) < 4 || rng.Intn(40) == 0 {
				// A new five-tuple: half the time a copy of an existing
				// stream's SSRC near its RTP clock, else unrelated.
				s := src{flow: ft(c1, uint16(1024+len(srcs)), sfu, 8801), key: zoom.StreamKey{SSRC: uint32(rng.Intn(6)), Type: zoom.TypeVideo}, ts: rng.Uint32()}
				if len(srcs) > 0 && rng.Intn(2) == 0 {
					o := srcs[rng.Intn(len(srcs))]
					s.key, s.ts = o.key, o.ts+uint32(rng.Intn(3*zoom.VideoClockRate))
				}
				srcs = append(srcs, s)
			}
			// Low-numbered sources speak rarely, so they pause for long.
			s := &srcs[rng.Intn(1+rng.Intn(len(srcs)))]
			s.ts += 2970
			o := StreamObs{Time: at, Flow: s.flow, Key: s.key, TS: s.ts}
			swept.Evict(at.Add(-linkWindow))
			if a, b := never.Observe(o), swept.Observe(o); a != b {
				t.Fatalf("seed %d observation %d: unified ID %d without ageing, %d with", seed, i, a, b)
			}
		}
		var resumed int
		for _, s := range swept.streams {
			if !s.evicted && s.lastSeen.Sub(s.firstSeen) > 2*linkWindow {
				resumed++
			}
		}
		if len(never.bySSRC) == 0 || resumed == 0 {
			t.Fatalf("seed %d: workload exercises nothing (index %d keys, %d long-lived streams)", seed, len(never.bySSRC), resumed)
		}
	}
}

// TestDedupHostileClockAtSweep pins what a wild timestamp does when it
// lands on a sweep. Far forward: every stream not seen at that instant
// is unlinked, each until its own next packet, so only a copy that
// first appears in between is missed. Backward: the sweep unlinks
// nothing it would not have at the right time.
func TestDedupHostileClockAtSweep(t *testing.T) {
	pad := func(d *Dedup, at time.Time, n int) {
		for i := 0; i < n; i++ {
			d.Observe(StreamObs{Time: at, Flow: ft(c2, 61500, sfu, 8801), Key: zoom.StreamKey{SSRC: 7, Type: zoom.TypeAudio}, TS: uint32(i)})
		}
	}
	d := NewDedup()
	id := feed(d, up1, vKey, t0, 0, 10000, 10)
	pad(d, t0.Add(time.Second), ageEvery-11)
	d.Observe(StreamObs{Time: t0.Add(100 * 365 * 24 * time.Hour), Flow: ft(c2, 61501, sfu, 8801), Key: zoom.StreamKey{SSRC: 8, Type: zoom.TypeAudio}})
	if indexed(d, up1, vKey) {
		t.Fatal("far-forward sweep left an idle stream linked")
	}
	if got := feed(d, down2, vKey, t0.Add(2*time.Second), 10, 10000+10*2970, 1); got == id {
		t.Error("a copy linked to a stream the sweep had unlinked")
	}
	feed(d, up1, vKey, t0.Add(2*time.Second), 10, 10000+10*2970, 1)
	other := ft(sfu, 8801, "10.8.3.3", 61000)
	if got := feed(d, other, vKey, t0.Add(2*time.Second+40*time.Millisecond), 11, 10000+11*2970, 1); got != id {
		t.Errorf("after the original's next packet a new copy got unified ID %d, want %d", got, id)
	}

	d = NewDedup()
	feed(d, up1, vKey, t0, 0, 10000, 10)
	pad(d, t0.Add(time.Second), ageEvery-11)
	d.Observe(StreamObs{Time: t0.Add(-time.Hour), Flow: ft(c2, 61501, sfu, 8801), Key: zoom.StreamKey{SSRC: 8, Type: zoom.TypeAudio}})
	if !indexed(d, up1, vKey) {
		t.Error("backward sweep unlinked a live stream")
	}
}
