package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/obs"
	"zoomlens/internal/rtcproto"
)

// promDump renders a registry for assertion.
func promDump(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestAnalyzerObsCounters runs the seeded trace through an instrumented
// sequential analyzer and checks the exposition reflects the pipeline:
// total packets, per-stage decode counts consistent with the analyzer's
// own totals, and occupancy/cap gauges for every state table.
func TestAnalyzerObsCounters(t *testing.T) {
	tr, opts := seededTrace(t, 8)
	reg := obs.NewRegistry()
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
		MaxFlows:       4096,
		MaxStreams:     1024,
		Obs:            reg,
	}
	a := NewAnalyzer(cfg)
	tr.feed(a.Packet)
	a.Finish()

	check := func(name string, want uint64) {
		t.Helper()
		c := reg.Counter(name, "")
		if c.Value() != want {
			t.Errorf("%s = %d, want %d", name, c.Value(), want)
		}
	}
	check("zoomlens_packets_total", a.Packets)
	if reg.Counter("zoomlens_bytes_total", "").Value() != a.Bytes {
		t.Error("bytes counter diverges from analyzer total")
	}
	stage := func(s string) uint64 {
		return reg.Counter("zoomlens_decode_stage_packets_total", "", obs.L("stage", s)).Value()
	}
	if got := stage("zoom_udp"); got != a.ProtoDecoded[rtcproto.IDZoom] {
		t.Errorf("zoom_udp stage = %d, want %d", got, a.ProtoDecoded[rtcproto.IDZoom])
	}
	if got := stage("stun"); got != a.STUNPackets {
		t.Errorf("stun stage = %d, want %d", got, a.STUNPackets)
	}
	if got := stage("tcp"); got != a.TCPPackets {
		t.Errorf("tcp stage = %d, want %d", got, a.TCPPackets)
	}
	if got, want := stage("undecodable"), a.Summary().Undecodable; got != want {
		t.Errorf("undecodable stage = %d, want %d", got, want)
	}
	if got := stage("filtered"); got != a.DroppedByFilter {
		t.Errorf("filtered stage = %d, want %d", got, a.DroppedByFilter)
	}
	if stage("media") == 0 {
		t.Error("media stage never counted on a media-rich trace")
	}

	out := promDump(t, reg)
	for _, want := range []string{
		`zoomlens_state_occupancy{table="flows"}`,
		`zoomlens_state_occupancy{table="streams"}`,
		`zoomlens_state_cap{table="flows"} 4096`,
		`zoomlens_state_cap{table="streams"} 1024`,
		`zoomlens_state_cap{table="copy_pending"} 262144`, // 256 × MaxStreams
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	tot := a.Flows.Totals()
	if got := reg.Gauge("zoomlens_state_occupancy", "", obs.L("table", "flows")).Value(); got != int64(tot.Flows) {
		t.Errorf("flow occupancy gauge = %d, want %d", got, tot.Flows)
	}
}

// TestParallelObsAggregates runs the parallel pipeline against a
// registry: shared counters must aggregate across dispatcher and shards
// to the same totals as the sequential run, and per-shard occupancy
// series must appear.
func TestParallelObsAggregates(t *testing.T) {
	tr, opts := seededTrace(t, 8)
	base := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	seq := NewAnalyzer(base)
	tr.feed(seq.Packet)
	seq.Finish()

	reg := obs.NewRegistry()
	cfg := base
	cfg.Obs = reg
	cfg.MaxFlows = 4096
	pa := NewParallelAnalyzer(cfg, 4)
	tr.feed(pa.Packet)
	pa.Finish()

	if got := reg.Counter("zoomlens_packets_total", "").Value(); got != seq.Packets {
		t.Errorf("packets_total = %d, want %d", got, seq.Packets)
	}
	stage := func(s string) uint64 {
		return reg.Counter("zoomlens_decode_stage_packets_total", "", obs.L("stage", s)).Value()
	}
	if got, want := stage("zoom_udp"), seq.ProtoDecoded[rtcproto.IDZoom]; got != want {
		t.Errorf("zoom_udp stage = %d, want %d", got, want)
	}
	if got, want := stage("stun")+stage("tcp"), seq.STUNPackets+seq.TCPPackets; got != want {
		t.Errorf("stun+tcp stages = %d, want %d", got, want)
	}

	out := promDump(t, reg)
	for _, want := range []string{
		`zoomlens_state_occupancy{shard="0",table="flows"}`,
		`zoomlens_state_occupancy{shard="3",table="flows"}`,
		`zoomlens_state_cap{shard="0",table="flows"} 1024`, // 4096 / 4 workers
		`zoomlens_state_cap{table="flows"} 4096`,
		"zoomlens_shard_queue_depth",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Every live series is an engine tally, pushed. After Finish each
	// cumulative series equals its tally summed over the run's windows and
	// the gap gauge reads 0; mid-run a series lags its tally by at most
	// obsUpdateEvery frames of the goroutine that owns it. Rows: 1, 2 and
	// 4 workers; runs resumed mid-trace from a full+delta chain, after a
	// restore attempt that fails on a torn delta and is discarded, whose
	// series count only the tallies' gain since the restore (a counter is
	// process-local) and, added to the chain's tallies, equal the
	// uninterrupted run's; and runs rotated once. The chain ends a quarter
	// into the trace, before its idle sweep evicts, so that the evicted
	// series move after the restore.
	// The trace is longer, every 16th frame is off the Zoom networks, and
	// idle eviction and a stream cap are on, so that every series moves.
	long, _ := seededTrace(t, 30)
	var at []time.Time
	var frames [][]byte
	stray := layers.EthernetIPv4UDP(netip.MustParseAddrPort("192.0.2.1:5000"), netip.MustParseAddrPort("192.0.2.2:5001"), 64, []byte{1, 2, 3, 4})
	for i := range long.frames {
		if i%16 == 0 {
			at, frames = append(at, long.at[i]), append(frames, stray)
		}
		at, frames = append(at, long.at[i]), append(frames, long.frames[i])
	}
	n := len(frames)
	cfg.FlowTTL, cfg.MaxStreams = 2*time.Second, 16
	uninterrupted := make(map[int]map[string]uint64)
	for _, row := range []struct {
		workers          int
		restored, rotate bool
	}{
		{workers: 1}, {workers: 2}, {workers: 4},
		{workers: 1, restored: true}, {workers: 2, restored: true},
		{workers: 1, rotate: true}, {workers: 2, rotate: true},
	} {
		name := fmt.Sprintf("workers=%d/restored=%v/rotated=%v", row.workers, row.restored, row.rotate)
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := cfg
			cfg.Obs = reg
			var eng Engine
			var chain map[string]uint64 // restored: the tallies the chain holds
			from := 0
			if !row.restored {
				eng = NewParallelAnalyzer(cfg, row.workers)
			} else {
				src := cfg
				src.Obs = nil
				live := NewParallelAnalyzer(src, row.workers)
				for ; from < n/8; from++ {
					live.Packet(at[from], frames[from])
				}
				full := bytes.Clone(checkpointBytes(t, live))
				for ; from < n/4; from++ {
					live.Packet(at[from], frames[from])
				}
				var delta bytes.Buffer
				if err := live.CheckpointDelta(&delta); err != nil {
					t.Fatal(err)
				}
				live.Finish() // counts nothing more
				chain = tallies(live.Result())
				restore := func(delta []byte) (Engine, error) {
					eng, err := RestoreAnalyzer(bytes.NewReader(full), cfg)
					if err == nil {
						err = eng.ApplyDelta(bytes.NewReader(delta))
					}
					return eng, err
				}
				// Cut short and resealed, so that it fails in the decode.
				torn := bytes.Clone(delta.Bytes()[:delta.Len()/2])
				torn = binary.LittleEndian.AppendUint32(torn, crc32.Checksum(torn, crcTable))
				discarded, err := restore(torn)
				if err == nil {
					t.Fatal("a torn delta applied")
				}
				Discard(discarded)
				if eng, err = restore(delta.Bytes()); err != nil {
					t.Fatal(err)
				}
			}
			var windows []*Analyzer
			for i := from; i < n; i++ {
				eng.Packet(at[i], frames[i])
				if i == (from+n)/2 {
					lagging(t, reg, eng, chain)
					if row.rotate {
						windows = append(windows, eng.Rotate(at[i]))
					}
				}
			}
			eng.Finish()
			windows = append(windows, eng.Result())
			got, want := seriesValues(t, reg), tallies(windows...)
			for key := range want {
				want[key] -= chain[key]
			}
			for key, tally := range want {
				if got[key] != tally {
					t.Errorf("%s = %d, want its tally %d", key, got[key], tally)
				}
			}
			for _, key := range []string{
				`zoomlens_decode_stage_packets_total{stage="filtered"}`,
				`zoomlens_evicted_total{kind="streams"}`,
				`zoomlens_rejected_packets_total{reason="stream"}`,
			} {
				if want[key] == 0 {
					t.Errorf("%s never moved: the row does not test it", key)
				}
			}
			if got := reg.Gauge("zoomlens_accounting_gap", "").Value(); got != 0 {
				t.Errorf("zoomlens_accounting_gap = %d after Finish, want 0", got)
			}
			switch {
			case row.restored:
				for key, v := range uninterrupted[row.workers] {
					if got[key]+chain[key] != v {
						t.Errorf("restored run: %s = %d after the chain's %d, want the uninterrupted run's %d in all", key, got[key], chain[key], v)
					}
				}
			case !row.rotate:
				uninterrupted[row.workers] = want
			}
		})
	}
}

// tallies returns, per cumulative live series, the engine tally it
// mirrors summed over the given windows of one run.
func tallies(windows ...*Analyzer) map[string]uint64 {
	m := make(map[string]uint64)
	for _, a := range windows {
		s, ev := a.Counters(), a.Flows.Evictions()
		for key, v := range map[string]uint64{
			"zoomlens_packets_total": a.Packets,
			"zoomlens_bytes_total":   a.Bytes,
			`zoomlens_decode_stage_packets_total{stage="undecodable"}`: s.Undecodable,
			`zoomlens_decode_stage_packets_total{stage="filtered"}`:    a.DroppedByFilter,
			`zoomlens_decode_stage_packets_total{stage="stun"}`:        a.STUNPackets,
			`zoomlens_decode_stage_packets_total{stage="tcp"}`:         a.TCPPackets,
			`zoomlens_decode_stage_packets_total{stage="zoom_udp"}`:    s.ZoomUDP,
			`zoomlens_decode_stage_packets_total{stage="media"}`:       a.mediaPackets,
			`zoomlens_proto_decoded_total{proto="zoom"}`:               a.ProtoDecoded[rtcproto.IDZoom],
			`zoomlens_proto_decoded_total{proto="webrtc"}`:             a.ProtoDecoded[rtcproto.IDWebRTC],
			"zoomlens_proto_undecodable_total":                         a.ProtoUndecodable,
			"zoomlens_panics_recovered_total":                          s.PanicsRecovered,
			"zoomlens_shed_packets_total":                              a.ShedPackets,
			"zoomlens_shed_bytes_total":                                a.ShedBytes,
			`zoomlens_evicted_total{kind="flows"}`:                     ev.EvictedFlows,
			`zoomlens_evicted_total{kind="streams"}`:                   ev.EvictedStreams,
			`zoomlens_evicted_total{kind="tcp"}`:                       a.EvictedTCP,
			`zoomlens_evicted_total{kind="archived"}`:                  uint64(len(a.Finished)),
			`zoomlens_rejected_packets_total{reason="flow"}`:           ev.RejectedFlowPackets,
			`zoomlens_rejected_packets_total{reason="stream"}`:         ev.RejectedStreamPackets,
			`zoomlens_rejected_packets_total{reason="substream"}`:      ev.RejectedSubstreamPackets,
			`zoomlens_rejected_packets_total{reason="tcp"}`:            a.RejectedTCPPackets,
		} {
			m[key] += v
		}
	}
	return m
}

// seriesValues reads every sample of a registry's exposition by series.
func seriesValues(t *testing.T, reg *obs.Registry) map[string]uint64 {
	t.Helper()
	m := make(map[string]uint64)
	for _, line := range strings.Split(promDump(t, reg), "\n") {
		if sp := strings.LastIndexByte(line, ' '); sp > 0 && !strings.HasPrefix(line, "#") {
			v, _ := strconv.ParseInt(line[sp+1:], 10, 64)
			m[line[:sp]] = uint64(v)
		}
	}
	return m
}

// lagging checks the freshness bound mid-run: a series trails its tally's
// gain over base (what a restore brought, or nil) by at most
// obsUpdateEvery frames. Inline, the front end owns every tally and every
// frame-counting series is compared; queue-fed, only the front end's own.
func lagging(t *testing.T, reg *obs.Registry, eng Engine, base map[string]uint64) {
	t.Helper()
	var want map[string]uint64
	switch e := eng.(type) {
	case *Analyzer:
		want = tallies(e)
		for key := range want {
			if strings.Contains(key, "bytes") || strings.HasPrefix(key, "zoomlens_evicted_total") {
				delete(want, key) // not one per frame
			}
		}
	case *ParallelAnalyzer:
		want = map[string]uint64{
			"zoomlens_packets_total":                                e.Packets,
			`zoomlens_decode_stage_packets_total{stage="filtered"}`: e.DroppedByFilter,
		}
	}
	got := seriesValues(t, reg)
	for key, tally := range want {
		if tally -= base[key]; got[key] > tally || tally-got[key] > obsUpdateEvery {
			t.Errorf("mid-run %s = %d against its tally %d: more than %d frames behind", key, got[key], tally, obsUpdateEvery)
		}
	}
}

// TestShardQueueDepthDrains checks the per-shard backlog gauge reports
// zero once the pipeline has drained. The dispatcher samples the gauge
// on enqueue only, so without the shard-side updates (and the explicit
// zeroing at quiesce and Finish) an idle shard would advertise its last
// enqueue-time backlog forever.
func TestShardQueueDepthDrains(t *testing.T) {
	tr, opts := seededTrace(t, 8)
	reg := obs.NewRegistry()
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
		Obs:            reg,
	}
	const workers = 4
	pa := NewParallelAnalyzer(cfg, workers)
	tr.feed(pa.Packet)

	depth := func(shard string) int64 {
		return reg.Gauge("zoomlens_shard_queue_depth", "", obs.L("shard", shard)).Value()
	}
	// A quiesce boundary (Snapshot) must leave every queue empty and say so.
	pa.Snapshot(tr.at[len(tr.at)-1], time.Second)
	for i := 0; i < workers; i++ {
		if got := depth(string(rune('0' + i))); got != 0 {
			t.Errorf("after snapshot quiesce: shard %d queue depth gauge = %d, want 0", i, got)
		}
	}

	// More traffic (so gauges move again), then Finish must zero them.
	tr.feed(pa.Packet)
	pa.Finish()
	for i := 0; i < workers; i++ {
		if got := depth(string(rune('0' + i))); got != 0 {
			t.Errorf("after Finish: shard %d queue depth gauge = %d, want 0", i, got)
		}
	}
}

// TestObsPanicCounter checks recovered panics surface on the shared
// counter (sequential path; the injected panic is quarantined).
func TestObsPanicCounter(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAnalyzer(Config{PreFiltered: true, Obs: reg})
	fired := false
	a.panicHook = func(at time.Time, frame []byte) {
		if !fired {
			fired = true
			panic("injected")
		}
	}
	// The hook runs in the shard, so the frames must be ones the front
	// end forwards.
	frame := layers.EthernetIPv4UDP(netip.MustParseAddrPort("10.8.0.10:50001"),
		netip.MustParseAddrPort("203.0.113.7:8801"), 64, []byte{0xde, 0xad})
	at := time.Unix(1700000000, 0)
	a.Packet(at, frame)
	a.Packet(at.Add(time.Millisecond), frame)
	if got := reg.Counter("zoomlens_panics_recovered_total", "").Value(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
	if got := a.Summary().PanicsRecovered; got != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", got)
	}
}

// TestStageTracerOnFinish checks the Finish/merge stages report through
// the configured tracer in both modes.
func TestStageTracerOnFinish(t *testing.T) {
	tr, opts := seededTrace(t, 4)
	stats := obs.NewStageStats()
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
		Tracer:         stats,
	}
	pa := NewParallelAnalyzer(cfg, 2)
	tr.feed(pa.Packet)
	pa.Snapshot(tr.at[len(tr.at)-1], time.Second)
	pa.Finish()
	rep := stats.Report()
	for _, stage := range []string{"merge", "finish", "snapshot"} {
		if !strings.Contains(rep, stage) {
			t.Errorf("trace report missing stage %q:\n%s", stage, rep)
		}
	}
}
