package core

import (
	"bytes"
	"fmt"
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
				if !reflect.DeepEqual(all(seq.Copies.Samples), all(par.Copies.Samples)) {
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

// flood is the adversarial packet mix of the flood tests: valid Zoom
// media packets from fresh random flows and SSRCs, TCP SYNs from fresh
// endpoints toward the Zoom prefix, and one long-lived stream (cycler)
// cycling through all 128 RTP payload types, 50 µs apart — 20 kpps, so
// idle eviction churns while the flood sustains.
type flood struct {
	rng                    *rand.Rand
	dst, dstTCP, cyclerSrc netip.AddrPort
	cycler                 flow.MediaStreamID
	start                  time.Time
}

func newFlood(seed int64) *flood {
	dst := netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, 7}), 8801)
	cyclerSrc := netip.MustParseAddrPort("10.9.9.9:40000")
	return &flood{
		rng: rand.New(rand.NewSource(seed)), dst: dst, dstTCP: netip.AddrPortFrom(dst.Addr(), 443), cyclerSrc: cyclerSrc,
		cycler: flow.MediaStreamID{
			Flow: layers.FiveTuple{Src: cyclerSrc.Addr(), SrcPort: cyclerSrc.Port(), Dst: dst.Addr(), DstPort: dst.Port(), Proto: layers.ProtoUDP},
			Key:  zoom.StreamKey{SSRC: 0xc1c1e5, Type: zoom.TypeAudio},
		},
		start: time.Date(2022, 3, 1, 12, 0, 0, 0, time.UTC),
	}
}

// packet returns the flood's i-th packet; call it for i = 0, 1, 2, ….
func (f *flood) packet(i int) (time.Time, []byte) {
	at := f.start.Add(time.Duration(i) * 50 * time.Microsecond)
	switch {
	case i%64 == 0:
		return at, zoomAudioFrame(f.rng, f.cyclerSrc, f.dst, f.cycler.Key.SSRC, uint8(i/64%128))
	case i%8 == 1:
		return at, new(layers.Builder).BuildTCP(floodSrc(f.rng), f.dstTCP, 64, f.rng.Uint32(), 0, layers.TCPSyn, 65535, nil)
	default:
		return at, floodFrame(f.rng, f.dst)
	}
}

// floodCfg is the flood tests' configuration: every cap a deployment can
// set, and an idle TTL several times shorter than the flood.
func floodCfg(maxFlows, maxStreams int) Config {
	return Config{
		ZoomNetworks: []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")},
		PreFiltered:  true,
		MaxFlows:     maxFlows,
		MaxStreams:   maxStreams,
		FlowTTL:      5 * time.Second,
	}
}

// TestFloodHoldsCaps feeds one million flood packets (50 s, several
// FlowTTL windows) and verifies the caps a deployment can set (and the
// ones derived from them) hold the concurrent state flat throughout,
// with everything turned away or aged out accounted for in the summary.
// What the window keeps for its whole length is rotation's to bound
// (TestRotationBoundsWindowState).
func TestFloodHoldsCaps(t *testing.T) {
	const (
		packets    = 1_000_000
		maxFlows   = 512
		maxStreams = 1024
	)
	a := NewAnalyzer(floodCfg(maxFlows, maxStreams))
	fl := newFlood(99)
	for i := 0; i < packets; i++ {
		a.Packet(fl.packet(i))
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
	if st, ok := a.Flows.Stream(fl.cycler); !ok {
		t.Error("the payload-type cycling stream is not live")
	} else if n := len(st.Substreams); n != maxSubstreams {
		t.Errorf("cycling stream holds %d substreams, want the derived cap %d", n, maxSubstreams)
	}
	if n := a.Copies.Pending(); n > 256*maxStreams {
		t.Errorf("%d observations wait in the copy matcher, derived cap %d", n, 256*maxStreams)
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

// TestRotationBoundsWindowState: rotation, not a cap, bounds what a
// report window keeps for its whole length. The flood, rotated every 4 s
// of trace time at 1 and 4 workers: between rotations each shard's
// archive is exactly the streams its flow table evicted, and the
// duplicate detector holds no more records than the stream segments the
// window admitted (live plus evicted); right after each Rotate both are
// empty, and the window handed back holds what they held.
func TestRotationBoundsWindowState(t *testing.T) {
	const (
		packets = 400_000 // 20 s of trace
		rotate  = 4 * time.Second
	)
	cfg := floodCfg(512, 1024)
	cfg.FlowTTL = time.Second
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := NewParallelAnalyzer(cfg, workers)
			defer Discard(eng)
			p := eng.pipeline
			// window checks the live window's state at rest and returns its
			// archive's length.
			window := func(at string) (archived int) {
				t.Helper()
				p.quiesce()
				var segments uint64
				for i, sh := range p.shards {
					a, e := sh.conserveStreams()
					if a != e {
						t.Fatalf("%s: shard %d archives %d streams, its flow table evicted %d", at, i, a, e)
					}
					archived += len(sh.Finished)
					segments += e + uint64(sh.Flows.Totals().Streams)
				}
				if n := p.Dedup.Len(); uint64(n) > segments {
					t.Fatalf("%s: %d detector records, more than the window's %d stream segments", at, n, segments)
				}
				return archived
			}
			fl := newFlood(99)
			next := fl.start.Add(rotate)
			rotations, rotatedArchive := 0, 0
			for i := 0; i < packets; i++ {
				at, frame := fl.packet(i)
				if !at.Before(next) {
					before := window(fmt.Sprintf("packet %d, before rotation", i))
					win := eng.Rotate(at)
					if a, e := win.conserveStreams(); a != e || len(win.Finished) != before {
						t.Fatalf("packet %d: window archives %d streams, evicted %d, want the %d the live window held", i, a, e, before)
					}
					if n := win.Dedup.Len(); uint64(n) > uint64(len(win.Finished))+uint64(win.Flows.Totals().Streams) {
						t.Fatalf("packet %d: window's detector holds %d records for %d stream segments", i, n, len(win.Finished)+win.Flows.Totals().Streams)
					}
					if n := window(fmt.Sprintf("packet %d, after rotation", i)); n != 0 || p.Dedup.Len() != 0 {
						t.Fatalf("packet %d: rotation left %d archived streams and %d detector records", i, n, p.Dedup.Len())
					}
					rotations++
					rotatedArchive += before
					next = next.Add(rotate)
				}
				eng.Packet(at, frame)
				if i%25_000 == 0 {
					window(fmt.Sprintf("packet %d", i))
				}
			}
			if rotations < 4 || rotatedArchive == 0 {
				t.Fatalf("%d rotations carried %d archived streams: the flood exercises nothing", rotations, rotatedArchive)
			}
			t.Logf("%d rotations carried %d archived streams", rotations, rotatedArchive)
		})
	}
}
