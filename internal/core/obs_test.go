package core

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/obs"
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
	if got := stage("zoom_udp"); got != a.ZoomUDP {
		t.Errorf("zoom_udp stage = %d, want %d", got, a.ZoomUDP)
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
	if got, want := stage("zoom_udp"), seq.ZoomUDP; got != want {
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
