package zoomlens

// Differential test for the protocol-plugin layer: a mixed-app campus
// trace — Zoom and standards-RTC meetings side by side on the same
// border link — must render byte-identical reports across the
// sequential engine, the sharded parallel engine at several widths, and
// a 2-way cluster run, from classic pcap and pcapng serializations
// alike. A second test pins the zoom-only invariant the refactor is
// accountable to: on a pure Zoom trace, enabling the webrtc plugin (the
// default set) and pinning -proto zoom produce the same report to the
// byte.

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/pcap"
	"zoomlens/internal/rtcproto"
	"zoomlens/internal/sim"
	"zoomlens/internal/trace"
	"zoomlens/internal/zoom"
)

// mixedCampus is a fast mixed-app campus workload: roughly half the
// scheduled meetings belong to the standards-RTC application.
func mixedCampus() CampusConfig {
	cfg := DefaultCampusConfig()
	cfg.Start = time.Date(2022, 5, 5, 9, 58, 0, 0, time.UTC)
	cfg.Duration = 2 * time.Minute
	cfg.MeetingsPerHourPeak = 40
	cfg.BackgroundPPS = 500
	cfg.WebRTCFraction = 0.5
	return cfg
}

// mixedTrace lazily records the mixed-app capture and serializes it to
// classic pcap and pcapng, mirroring ingestTrace for the zoom-only
// benchmark trace.
var mixedTraceOnce sync.Once
var mixedTracePcap, mixedTraceNG []byte
var mixedTraceCfg Config

func mixedTrace(tb testing.TB) (pcapBytes, ngBytes []byte, cfg Config) {
	tb.Helper()
	mixedTraceOnce.Do(func() {
		ccfg := mixedCampus()
		opts := DefaultWorldOptions()
		opts.Seed = ccfg.Seed
		opts.Start = ccfg.Start
		opts.SkipExternalDelivery = true
		w := NewWorld(opts)

		var at []time.Time
		var frames [][]byte
		w.Monitor = func(t time.Time, frame []byte) {
			cp := make([]byte, len(frame))
			copy(cp, frame)
			at = append(at, t)
			frames = append(frames, cp)
		}
		r := trace.NewRunner(ccfg, w)
		r.Install(trace.Schedule(ccfg))
		w.Run(ccfg.Start.Add(ccfg.Duration))

		var buf bytes.Buffer
		pw, err := pcap.NewWriter(&buf, pcap.WriterOptions{Nanosecond: true})
		if err != nil {
			panic(err)
		}
		for i := range frames {
			if err := pw.WriteRecord(at[i], frames[i]); err != nil {
				panic(err)
			}
		}
		mixedTracePcap = buf.Bytes()

		var ngBuf bytes.Buffer
		ng, err := pcap.NewNGWriter(&ngBuf, uint16(pcap.LinkTypeEthernet))
		if err != nil {
			panic(err)
		}
		for i := range frames {
			if err := ng.WriteRecord(at[i], frames[i]); err != nil {
				panic(err)
			}
		}
		mixedTraceNG = ngBuf.Bytes()

		mixedTraceCfg = Config{
			ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
			CampusNetworks: []netip.Prefix{opts.CampusNet},
		}
	})
	if len(mixedTracePcap) == 0 {
		tb.Fatal("empty mixed-app trace")
	}
	return mixedTracePcap, mixedTraceNG, mixedTraceCfg
}

// replayProto replays one serialized capture through an engine built
// from cfg and returns both the rendered report and the analyzer (for
// counter assertions).
func replayProto(t *testing.T, serialized []byte, cfg Config, workers int) (string, *Analyzer) {
	t.Helper()
	s, err := pcap.OpenStream(bytes.NewReader(serialized))
	if err != nil {
		t.Fatal(err)
	}
	var eng Engine
	if workers > 1 {
		eng = NewParallelAnalyzer(cfg, workers)
	} else {
		eng = NewAnalyzer(cfg)
	}
	var rec pcap.Record
	for {
		err := s.NextInto(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		eng.Packet(rec.Timestamp, rec.Data)
	}
	eng.Finish()
	a := eng.Result()
	return renderReport(a), a
}

func TestProtoDifferentialMixedApps(t *testing.T) {
	raw, ngRaw, cfg := mixedTrace(t)

	want, ref := replayProto(t, raw, cfg, 1)
	if !strings.Contains(want, "stream ") {
		t.Fatalf("sequential report is streamless:\n%.400s", want)
	}
	// The trace must genuinely exercise both plugins, through to the
	// per-app report surfaces.
	if ref.ProtoDecoded[rtcproto.IDZoom] == 0 || ref.ProtoDecoded[rtcproto.IDWebRTC] == 0 {
		t.Fatalf("ProtoDecoded = %v, want both apps decoded", ref.ProtoDecoded)
	}
	apps := map[string]bool{}
	for _, rep := range ref.MeetingReports() {
		apps[rep.App] = true
	}
	if !apps["zoom"] || !apps["webrtc"] {
		t.Fatalf("meeting report apps = %v, want both zoom and webrtc", apps)
	}
	if !strings.Contains(want, " webrtc ") || !strings.Contains(want, " zoom ") {
		t.Fatal("rendered report lacks per-app stream/meeting tags")
	}

	for _, input := range []struct {
		name string
		data []byte
	}{{"pcap", raw}, {"pcapng", ngRaw}} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", input.name, workers), func(t *testing.T) {
				if got, _ := replayProto(t, input.data, cfg, workers); got != want {
					t.Errorf("report diverges from sequential pcap replay (lens %d vs %d)\nfirst diff: %s",
						len(got), len(want), firstDiffLine(want, got))
				}
			})
		}
	}

	// Cluster tier: split the capture across two workers and aggregate;
	// also across a mid-trace checkpoint-drain migration.
	recs, truncated := tracePackets(t, raw)
	if truncated {
		t.Fatal("mixed trace unexpectedly truncated")
	}
	t.Run("cluster/workers=2", func(t *testing.T) {
		if got := clusterRun(t, cfg, recs, 2, -1); got != want {
			t.Errorf("cluster report diverges (lens %d vs %d)\nfirst diff: %s",
				len(got), len(want), firstDiffLine(want, got))
		}
	})
	t.Run("cluster/workers=2/migrate", func(t *testing.T) {
		if got := clusterRun(t, cfg, recs, 2, len(recs)/2); got != want {
			t.Errorf("post-migration cluster report diverges (lens %d vs %d)\nfirst diff: %s",
				len(got), len(want), firstDiffLine(want, got))
		}
	})
	t.Run("head-accounting", func(t *testing.T) { checkHeadAccounting(t, cfg, recs) })
	t.Run("short-ttl-dedup", checkShortTTLDedup)
}

// lateCopyTrace is a synthetic capture in which a stream's copy first
// appears long after the original went idle, yet inside the §4.3.2
// linkage window: client A sends 50 video frames to the SFU and stops;
// a third client's audio stream then runs for more than 4,096 packets
// (one whole idle-eviction cadence); 1.55 s after A's last packet the
// SFU starts forwarding A's stream — same SSRC, RTP clock 1.5 s further
// on — to client B on a second five-tuple.
func lateCopyTrace() (recs []pcap.Record, cfg Config) {
	sfu := netip.MustParseAddrPort("203.0.113.7:8801")
	a, b, c := netip.MustParseAddrPort("10.8.1.2:52000"), netip.MustParseAddrPort("10.8.7.7:61000"), netip.MustParseAddrPort("10.8.9.9:40000")
	start := time.Date(2022, 5, 5, 10, 0, 0, 0, time.UTC)
	var bld layers.Builder
	add := func(at time.Duration, src, dst netip.AddrPort, fromSFU bool, k sim.Kind, ssrc uint32, pt uint8, seq uint16, ts uint32) {
		h := sim.Header{Kind: k, SFUSeq: seq, FromSFU: fromSFU, MediaSeq: seq, MediaTS: ts, FrameSeq: seq, FramePkts: 1,
			PT: pt, Seq: seq, TS: ts, SSRC: ssrc, Marker: true}
		payload := append(sim.AppendHeaders(nil, &h), make([]byte, 200)...)
		recs = append(recs, pcap.Record{Timestamp: start.Add(at), Data: bytes.Clone(bld.BuildUDP(src, dst, 64, payload))})
	}
	const frame, ticks = 33 * time.Millisecond, 2970 // one 30 fps frame on the wall and RTP clocks
	for i := 0; i < 50; i++ {
		add(time.Duration(i)*frame, a, sfu, false, sim.KindVideo, 100, 98, uint16(i), uint32(1000+i*ticks))
	}
	idle := 49 * frame
	for i := 0; i < 4300; i++ {
		add(idle+50*time.Millisecond+time.Duration(i)*300*time.Microsecond, c, sfu, false, sim.KindAudio, 200, 112, uint16(i), uint32(i*320))
	}
	for i := 0; i < 30; i++ {
		add(idle+1550*time.Millisecond+time.Duration(i)*frame, sfu, b, true, sim.KindVideo, 100, 98, uint16(50+i), uint32(1000+49*ticks+135000+i*ticks))
	}
	return recs, Config{
		ZoomNetworks:   []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")},
		CampusNetworks: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
	}
}

// checkShortTTLDedup is the row for a FlowTTL far shorter than the
// linkage window: idle eviction of per-flow state must not reach into
// the cross-flow duplicate detector, which ages on its own window and on
// the observation sequence alone. The meetings and the detector's
// records, unified IDs included, are the same in all three tiers and the
// same as with no TTL at all. So is what Streams enumerates: eviction
// moves a stream into the archive, not out of the report, so every
// stream ID is listed with the packet count it has without a TTL. The
// in-process engines evict on one clock, the front end's, so at 2 and 4
// workers the segments themselves — where eviction cut each stream, and
// each piece's packets — are those of the 1-worker engine. A cluster
// worker evicts on the frames it receives, not on the splitter's count,
// so the cluster row may cut a stream elsewhere and compares the per-ID
// sums only.
func checkShortTTLDedup(t *testing.T) {
	recs, cfg := lateCopyTrace()
	noClient := func(layers.FiveTuple, zoom.StreamKey) netip.AddrPort { return netip.AddrPort{} }
	view := func(a *Analyzer) string {
		packets := map[string]uint64{} // fmt prints a map in key order
		for _, seg := range a.Streams() {
			packets[fmt.Sprint(seg.ID)] += seg.Metrics.Packets
		}
		return fmt.Sprintf("meetings %+v\nrecords %+v\npackets %v", a.Meetings(), a.Dedup.RecordsBy(noClient), packets)
	}
	segments := func(a *Analyzer) string {
		var b strings.Builder
		for _, seg := range a.Streams() {
			fmt.Fprintf(&b, "%v %v..%v archived=%v packets=%d\n", seg.ID, seg.FirstSeen, seg.LastSeen, seg.Archived, seg.Metrics.Packets)
		}
		return b.String()
	}
	run := func(cfg Config, workers int) *Analyzer {
		eng := newEngineFor(cfg, workers)
		for _, rec := range recs {
			eng.Packet(rec.Timestamp, rec.Data)
		}
		eng.Finish()
		return eng.Result()
	}
	ref := run(cfg, 1)
	want := view(ref)
	if ms := ref.Meetings(); len(ms) != 2 || len(ms[0].Clients) != 2 {
		t.Fatalf("without a TTL the late copy must join its original's meeting (2 meetings, the first with both clients); got %+v", ms)
	}
	cfg.FlowTTL = 500 * time.Millisecond
	var seq string
	for _, workers := range []int{1, 2, 4} {
		a := run(cfg, workers)
		if workers == 1 {
			if a.Summary().EvictedStreams == 0 {
				t.Fatal("the TTL never evicted the idle original: the trace does not exercise the cadence")
			}
			seq = segments(a)
		} else if got := segments(a); got != seq {
			t.Errorf("workers=%d at FlowTTL %v cuts its streams into other segments than the 1-worker engine:\n got %s\nwant %s", workers, cfg.FlowTTL, got, seq)
		}
		if got := view(a); got != want {
			t.Errorf("workers=%d at FlowTTL %v diverges from the run without a TTL:\n got %s\nwant %s", workers, cfg.FlowTTL, got, want)
		}
	}
	if got := view(clusterMerge(t, cfg, recs, 2, -1)); got != want {
		t.Errorf("2-way cluster merge at FlowTTL %v diverges from the run without a TTL:\n got %s\nwant %s", cfg.FlowTTL, got, want)
	}
}

// TestProtoZoomOnlyUnchanged pins the refactor's backward-compatibility
// contract: on a pure Zoom trace, the default plugin set (zoom+webrtc)
// and an explicitly pinned zoom-only set produce byte-identical
// reports, and the webrtc plugin decodes nothing.
func TestProtoZoomOnlyUnchanged(t *testing.T) {
	raw, _ := ingestTrace(t)
	_, _, cfg := benchTrace(t)

	want, def := replayProto(t, raw, cfg, 1)
	if !strings.Contains(want, "stream ") {
		t.Fatalf("default-set report is streamless:\n%.400s", want)
	}
	if def.ProtoDecoded[rtcproto.IDWebRTC] != 0 {
		t.Errorf("ProtoDecoded[webrtc] = %d on a zoom-only trace, want 0",
			def.ProtoDecoded[rtcproto.IDWebRTC])
	}
	pinned := cfg
	zoomOnly, err := rtcproto.ByName("zoom")
	if err != nil {
		t.Fatal(err)
	}
	pinned.Protos = []rtcproto.Plugin{zoomOnly}
	if got, _ := replayProto(t, raw, pinned, 1); got != want {
		t.Errorf("-proto zoom diverges from the default set on a zoom-only trace (lens %d vs %d)\nfirst diff: %s",
			len(got), len(want), firstDiffLine(want, got))
	}
}
