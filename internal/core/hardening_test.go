package core

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"zoomlens/internal/faultpcap"
	"zoomlens/internal/flow"
	"zoomlens/internal/layers"
	"zoomlens/internal/pcap"
	"zoomlens/internal/sim"
	"zoomlens/internal/zoom"
)

// tracePCAP serializes a captured simulation trace to classic-pcap bytes
// so fault injection can corrupt the byte stream itself.
func tracePCAP(t testing.TB, tr *capturedTrace) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.WriterOptions{Nanosecond: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.frames {
		if err := w.WriteRecord(tr.at[i], tr.frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestDifferentialUnderFaults is the robustness gate: for every fault
// class (mid-record truncation, payload bit flips, timestamp jumps,
// duplicated records) the sequential analyzer and the parallel analyzer
// at 1 and 4 workers must consume the identical damaged capture without
// a single unrecovered panic and produce byte-identical results.
func TestDifferentialUnderFaults(t *testing.T) {
	tr, opts := seededTrace(t, 20)
	clean := tracePCAP(t, tr)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	for _, fault := range []faultpcap.Fault{faultpcap.None, faultpcap.Truncate, faultpcap.BitFlip, faultpcap.TimestampJump, faultpcap.Duplicate} {
		fault := fault
		t.Run(fault.String(), func(t *testing.T) {
			damaged, err := faultpcap.Apply(clean, faultpcap.Options{Fault: fault, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}

			seq := NewAnalyzer(cfg)
			if err := seq.ReadPCAP(bytes.NewReader(damaged)); err != nil {
				t.Fatalf("sequential ReadPCAP: %v", err)
			}
			ss := seq.Summary()
			if ss.PanicsRecovered != 0 {
				t.Errorf("sequential recovered %d panics; faults must degrade without panicking", ss.PanicsRecovered)
			}
			if fault == faultpcap.Truncate && !ss.Truncated {
				t.Error("truncated capture not flagged in summary")
			}
			if fault != faultpcap.Truncate && ss.Truncated {
				t.Errorf("fault %v wrongly flagged as truncation", fault)
			}
			if ss.Packets == 0 {
				t.Fatal("no packets analyzed from damaged capture")
			}

			for _, workers := range []int{1, 4} {
				pa := NewParallelAnalyzer(cfg, workers)
				if err := pa.ReadPCAP(bytes.NewReader(damaged)); err != nil {
					t.Fatalf("parallel(%d) ReadPCAP: %v", workers, err)
				}
				par := pa.Result()
				if ps := par.Summary(); ss != ps {
					t.Fatalf("parallel(%d) summary diverges:\nsequential %+v\nparallel   %+v", workers, ss, ps)
				}
				if !reflect.DeepEqual(streamIDs(seq), streamIDs(par)) {
					t.Fatalf("parallel(%d) stream IDs diverge", workers)
				}
				for _, seg := range seq.Streams() {
					id, sm := seg.ID, seg.Metrics
					pm, ok := par.StreamMetrics[id]
					if !ok {
						t.Fatalf("parallel(%d): stream %v missing", workers, id)
					}
					if sm.LossStats() != pm.LossStats() {
						t.Errorf("parallel(%d): stream %v loss stats diverge", workers, id)
					}
				}
				if !reflect.DeepEqual(seq.Copies.Samples, par.Copies.Samples) {
					t.Errorf("parallel(%d): RTT samples diverge", workers)
				}
			}
		})
	}
}

// fnvSum hashes a frame so panic injection keys on content, which is
// identical no matter which analyzer or shard sees the frame.
func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestPanicQuarantineDifferential injects deterministic panics keyed on
// frame content into the sequential and parallel pipelines and demands:
// no crash, identical summaries (including the PanicsRecovered count),
// and the offending frames preserved in each quarantine ring.
func TestPanicQuarantineDifferential(t *testing.T) {
	tr, opts := seededTrace(t, 10)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
		PreFiltered:    true,
	}
	// Panic on ~1% of parseable frames (the hook runs in the shard, which
	// only ever sees frames the front end could parse).
	hook := func(at time.Time, frame []byte) {
		var p layers.Parser
		var pkt layers.Packet
		if p.Parse(frame, &pkt) != nil {
			return
		}
		if fnvSum(frame)%101 == 0 {
			panic("injected fault")
		}
	}

	seqQ := NewQuarantine(0)
	seqCfg := cfg
	seqCfg.Quarantine = seqQ
	seq := NewAnalyzer(seqCfg)
	seq.panicHook = hook
	tr.feed(seq.Packet)
	seq.Finish()
	ss := seq.Summary()
	if ss.PanicsRecovered == 0 {
		t.Fatal("panic injection never fired; test is vacuous")
	}
	if got := seqQ.Total(); got != ss.PanicsRecovered {
		t.Errorf("quarantine holds %d frames, summary counts %d panics", got, ss.PanicsRecovered)
	}

	for _, workers := range []int{1, 4} {
		parQ := NewQuarantine(0)
		parCfg := cfg
		parCfg.Quarantine = parQ
		pa := NewParallelAnalyzer(parCfg, workers)
		pa.SetPanicHook(hook)
		tr.feed(pa.Packet)
		pa.Finish()
		ps := pa.Result().Summary()
		if ss != ps {
			t.Fatalf("parallel(%d) summary diverges under injected panics:\nsequential %+v\nparallel   %+v", workers, ss, ps)
		}
		if got := parQ.Total(); got != ps.PanicsRecovered {
			t.Errorf("parallel(%d): quarantine holds %d, summary counts %d", workers, got, ps.PanicsRecovered)
		}
	}

	// The quarantine ring must round-trip to a readable forensic pcap.
	var buf bytes.Buffer
	if err := seqQ.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := r.Next(); err != nil {
			break
		}
		n++
	}
	if uint64(n) != seqQ.Total() {
		t.Errorf("forensic pcap has %d frames, quarantine captured %d", n, seqQ.Total())
	}
}

// floodFrame builds one valid server-based Zoom audio packet from a
// random source endpoint with a random SSRC — the worst case for state
// growth, since every packet asks the analyzer for a new flow, stream,
// and metric engine.
func floodFrame(rng *rand.Rand, dst netip.AddrPort) []byte {
	return zoomAudioFrame(rng, floodSrc(rng), dst, rng.Uint32(), 99)
}

// floodSrc draws a random campus-side endpoint.
func floodSrc(rng *rand.Rand) netip.AddrPort {
	return netip.AddrPortFrom(
		netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))}),
		uint16(1024+rng.Intn(60000)),
	)
}

func zoomAudioFrame(rng *rand.Rand, src, dst netip.AddrPort, ssrc uint32, pt uint8) []byte {
	h := sim.Header{ // fields in the order the rng draws them
		Kind:     sim.KindAudio,
		SFUSeq:   uint16(rng.Intn(1 << 16)),
		MediaSeq: uint16(rng.Intn(1 << 16)),
		MediaTS:  rng.Uint32(),
		PT:       pt,
		Seq:      uint16(rng.Intn(1 << 16)),
		TS:       rng.Uint32(),
		SSRC:     ssrc,
	}
	return layers.EthernetIPv4UDP(src, dst, 64, append(sim.AppendHeaders(nil, &h), 0xde, 0xad, 0xbe, 0xef))
}

// TestQuarantineRingKeepsNewest: a ring of two fed three frames keeps the
// last two, oldest first and byte for byte, and counts the one it shed.
// Add copies: the caller's buffer is reused between the calls.
func TestQuarantineRingKeepsNewest(t *testing.T) {
	q := NewQuarantine(2)
	t0 := time.Date(2022, 5, 5, 10, 0, 0, 0, time.UTC)
	buf := make([]byte, 0, 8)
	want := [][]byte{{1}, {2, 2}, {3, 3, 3}}
	for i, f := range want {
		buf = append(buf[:0], f...)
		q.Add(t0.Add(time.Duration(i)*time.Second), buf, "panic")
	}
	got := q.Frames()
	if len(got) != 2 || q.Total() != 3 || q.Dropped() != 1 {
		t.Fatalf("%d frames kept, %d total, %d dropped; want 2, 3, 1", len(got), q.Total(), q.Dropped())
	}
	for i, f := range got {
		if w := want[i+1]; !bytes.Equal(f.Frame, w) || !f.Time.Equal(t0.Add(time.Duration(i+1)*time.Second)) || f.Reason != "panic" {
			t.Errorf("frame %d = %v at %v (%q), want %v at %v", i, f.Frame, f.Time, f.Reason, w, t0.Add(time.Duration(i+1)*time.Second))
		}
	}
}

// TestFloodHoldsCaps feeds one million adversarial packets — valid Zoom
// media packets from fresh random flows and SSRCs, TCP SYNs from fresh
// endpoints toward the Zoom prefix, and one long-lived stream cycling
// through all 128 RTP payload types — and verifies the caps a deployment
// can set (and the ones derived from them) hold the hot state flat
// throughout, with everything turned away or aged out accounted for in
// the summary.
func TestFloodHoldsCaps(t *testing.T) {
	const (
		packets    = 1_000_000
		maxFlows   = 512
		maxStreams = 1024
	)
	cfg := Config{
		ZoomNetworks:      []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")},
		PreFiltered:       true,
		MaxFlows:          maxFlows,
		MaxStreams:        maxStreams,
		MaxMeetingStreams: 2 * maxStreams,
		MaxFinished:       maxStreams,
		FlowTTL:           5 * time.Second,
	}
	a := NewAnalyzer(cfg)
	rng := rand.New(rand.NewSource(99))
	dst := netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, 7}), 8801)
	dstTCP := netip.AddrPortFrom(dst.Addr(), 443)
	cyclerSrc := netip.MustParseAddrPort("10.9.9.9:40000")
	cycler := flow.MediaStreamID{
		Flow: layers.FiveTuple{Src: cyclerSrc.Addr(), SrcPort: cyclerSrc.Port(), Dst: dst.Addr(), DstPort: dst.Port(), Proto: layers.ProtoUDP},
		Key:  zoom.StreamKey{SSRC: 0xc1c1e5, Type: zoom.TypeAudio},
	}
	start := time.Date(2022, 3, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < packets; i++ {
		// 50 µs per packet = 20 kpps for 50 s: several FlowTTL windows,
		// so eviction churns while the flood sustains.
		at := start.Add(time.Duration(i) * 50 * time.Microsecond)
		switch {
		case i%64 == 0:
			a.Packet(at, zoomAudioFrame(rng, cyclerSrc, dst, cycler.Key.SSRC, uint8(i/64%128)))
		case i%8 == 1:
			a.Packet(at, new(layers.Builder).BuildTCP(floodSrc(rng), dstTCP, 64, rng.Uint32(), 0, layers.TCPSyn, 65535, nil))
		default:
			a.Packet(at, floodFrame(rng, dst))
		}
		if i%100_000 == 0 {
			if n := a.Flows.Totals().Flows; n > maxFlows {
				t.Fatalf("packet %d: %d live flows exceeds cap %d", i, n, maxFlows)
			}
			if n := a.Flows.Totals().Streams; n > maxStreams {
				t.Fatalf("packet %d: %d live streams exceeds cap %d", i, n, maxStreams)
			}
			if n := len(a.TCP); n > maxFlows {
				t.Fatalf("packet %d: %d TCP trackers exceed the derived cap %d", i, n, maxFlows)
			}
			if n := a.Copies.Pending(); n > 256*maxStreams {
				t.Fatalf("packet %d: %d observations wait in the copy matcher, derived cap %d", i, n, 256*maxStreams)
			}
		}
	}
	a.Finish()

	if n := a.Flows.Totals().Flows; n > maxFlows {
		t.Errorf("final flow table %d exceeds cap %d", n, maxFlows)
	}
	if n := a.Flows.Totals().Streams; n > maxStreams {
		t.Errorf("final stream table %d exceeds cap %d", n, maxStreams)
	}
	if n := len(a.StreamMetrics); n > maxStreams {
		t.Errorf("%d live metric engines exceed stream cap %d", n, maxStreams)
	}
	if n := len(a.TCP); n > maxFlows {
		t.Errorf("%d TCP trackers exceed the derived cap %d", n, maxFlows)
	}
	if st, ok := a.Flows.Stream(cycler); !ok {
		t.Error("the payload-type cycling stream is not live")
	} else if n := len(st.Substreams); n != maxSubstreams {
		t.Errorf("cycling stream holds %d substreams, want the derived cap %d", n, maxSubstreams)
	}
	if n := len(a.Finished); n > cfg.MaxFinished {
		t.Errorf("%d archived streams exceed MaxFinished %d", n, cfg.MaxFinished)
	}
	if n := a.Copies.Pending(); n > 256*maxStreams {
		t.Errorf("%d observations wait in the copy matcher, derived cap %d", n, 256*maxStreams)
	}
	noClient := func(layers.FiveTuple) netip.AddrPort { return netip.AddrPort{} }
	if n := len(a.Dedup.Records(noClient)); n > cfg.MaxMeetingStreams {
		t.Errorf("%d dedup records exceed cap %d", n, cfg.MaxMeetingStreams)
	}

	s := a.Summary()
	if s.Packets != packets {
		t.Fatalf("analyzed %d packets, want %d", s.Packets, packets)
	}
	if s.RejectedPackets == 0 {
		t.Error("flood never hit a cap; RejectedPackets = 0")
	}
	if s.EvictedFlows == 0 || s.EvictedStreams == 0 {
		t.Errorf("TTL eviction never fired: evicted flows %d, streams %d", s.EvictedFlows, s.EvictedStreams)
	}
	if s.PanicsRecovered != 0 {
		t.Errorf("flood caused %d recovered panics", s.PanicsRecovered)
	}
	// Nothing vanished silently: the table's packet total (which counts
	// capped-out packets too) covers every decoded Zoom packet, and the
	// rejection counters broke down which ones were refused state.
	ev := a.Flows.Evictions()
	if got := a.Flows.Totals().Packets; got != s.ZoomUDP {
		t.Errorf("accounting leak: table counted %d packets, analyzer decoded %d", got, s.ZoomUDP)
	}
	if ev.RejectedFlowPackets == 0 {
		t.Error("flood never hit the flow cap")
	}
	if ev.RejectedSubstreamPackets == 0 || a.RejectedTCPPackets == 0 {
		t.Errorf("flood never hit a derived cap: rejected substream packets %d, TCP packets %d",
			ev.RejectedSubstreamPackets, a.RejectedTCPPackets)
	}
}
