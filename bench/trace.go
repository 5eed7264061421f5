package main

// Trace mode: the per-layer numbers. Tracing is never on during the
// end-to-end runs; this is a separate set of in-process passes over the
// same generated file.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"zoomlens/internal/core"
)

// ledgerLayers are the spans that together re-compose what one
// core.Analyzer.Packet call does; their self times are summed against
// core.seq for core.ledger_gap_share. pcap.read (the driver's loop, not
// the analyzer) and the feature/predict layers (off in every end-to-end
// workload) stay out of the sum.
var ledgerLayers = []string{
	"layers.parse", "capture.classify", "tcprtt.observe", "rtcproto.decode",
	"flow.observe", "meeting.dedup", "metrics.copymatch", "metrics.observe",
	"metrics.evict", "flow.evict", "meeting.evict", "tcprtt.evict",
}

// spanFile is what trace-<workload>.json holds: the spans of the last
// traced pass and the counts taken at the same boundaries.
type spanFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Counts   layerCounts `json:"counts"`
	Spans    []span      `json:"spans"`
}

// coreConfig is the engine configuration zoomqoe builds for w on tr.
func coreConfig(w workload, tr traceInfo) core.Config {
	cfg := core.Config{ZoomNetworks: zoomNetworks()}
	if w.continuous {
		cfg.FlowTTL = flowTTL(tr.Span)
	}
	return cfg
}

// perDiv guards the per-unit divisions: a layer nothing entered costs 0.
func perDiv(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// runTrace produces every per-layer metric for one workload: traced
// ledger passes alternating with untraced core.Analyzer passes until
// `seconds` have gone by (medians over the pairs), then one pass each of
// the parallel engine, the checkpoint path, the cluster splitter and the
// workload's own zoomqoe command for what it leaves on disk.
func (b *bench) runTrace(w workload, seconds int) (*result, error) {
	res := &result{Workload: w.name}
	tr, _, err := b.setup(w)
	if err != nil {
		return nil, err
	}
	res.Trace = tr
	cfg := coreConfig(w, tr)
	pkts := tr.Packets

	samples := make(map[string][]float64)
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var last *ledger
	var seqWall time.Duration
	for start, i := time.Now(), 0; i == 0 || time.Since(start) < time.Duration(seconds)*time.Second; i++ {
		l := newLedger(cfg.FlowTTL)
		t0 := time.Now()
		if err := l.run(tr.Path); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		tracedWall := time.Since(t0)

		a := core.NewAnalyzer(cfg)
		seq, err := enginePass(tr.Path, a)
		if err != nil {
			return nil, fmt.Errorf("core pass: %w", err)
		}
		res.attempt(fmt.Sprintf("ledger pass %d vs core.Analyzer", i+1), l.checkLedger(a))

		self := l.tr.selfTimes()
		ns := func(name string) float64 { return float64(self[name]) }
		n := l.n
		add("pcap.read_ns_per_pkt", perDiv(ns("pcap.read"), n.Read))
		add("layers.parse_ns_per_pkt", perDiv(ns("layers.parse"), n.Read))
		add("layers.parse_fail_share", perDiv(float64(n.ParseFailed), n.Read))
		add("capture.classify_ns_per_pkt", perDiv(ns("capture.classify"), n.Classified))
		add("capture.keep_share", perDiv(float64(n.Kept), n.Classified))
		add("rtcproto.decode_ns_per_pkt", perDiv(ns("rtcproto.decode"), n.STUN+n.UDPKept))
		add("rtcproto.decoded_share", perDiv(float64(n.Decoded), n.UDPKept))
		add("flow.observe_ns_per_pkt", perDiv(ns("flow.observe"), n.Decoded))
		add("flow.new_stream_share", perDiv(float64(n.NewStreams), n.Media))
		add("meeting.dedup_ns_per_pkt", perDiv(ns("meeting.dedup"), n.Media))
		add("metrics.copymatch_ns_per_pkt", perDiv(ns("metrics.copymatch"), n.Media))
		add("metrics.observe_ns_per_pkt", perDiv(ns("metrics.observe"), n.Media))
		add("metrics.finish_ms", ms(self["metrics.finish"]))
		add("features.observe_ns_per_pkt", perDiv(ns("features.observe"), n.Media))
		add("features.rows", float64(n.FeatureRows))
		add("predict.ns_per_row", perDiv(ns("predict.predict"), n.Predicted))

		add("core.seq_ns_per_pkt", perDiv(float64(seq.inPacket), pkts))
		add("core.seq_allocs_per_pkt", perDiv(float64(seq.allocs), pkts))
		add("core.seq_bytes_per_pkt", perDiv(float64(seq.bytes), pkts))
		add("core.finish_ms", ms(seq.finish))
		var ledgerSum float64
		for _, name := range ledgerLayers {
			ledgerSum += ns(name)
		}
		add("core.ledger_gap_share", (float64(seq.inPacket)-ledgerSum)/float64(seq.inPacket))
		add("trace_overhead_share", float64(tracedWall-seq.wall)/float64(seq.wall))

		// Only now, outside the reconciled sums, evict whatever is still
		// live: eviction gets a per-stream cost even on workloads whose own
		// configuration never evicts.
		l.evictIdle(-1, time.Unix(1<<40, 0))
		add("flow.evict_ns_per_stream", perDiv(float64(l.tr.selfTimes()["flow.evict"]), l.n.EvictedStreams))
		last, seqWall = l, seq.wall
	}

	allocs, err := readPass(tr.Path)
	if err != nil {
		return nil, fmt.Errorf("read pass: %w", err)
	}
	add("pcap.read_allocs_per_pkt", allocs)

	par, err := enginePass(tr.Path, core.NewParallelAnalyzer(cfg, 2))
	if err != nil {
		return nil, fmt.Errorf("parallel pass: %w", err)
	}
	add("core.par_dispatch_ns_per_pkt", perDiv(float64(par.inPacket), pkts))
	add("core.par_finish_ms", ms(par.finish))
	add("core.par_speedup", float64(seqWall)/float64(par.wall))

	st, err := statePass(tr.Path, cfg, pkts)
	if err != nil {
		return nil, fmt.Errorf("checkpoint pass: %w", err)
	}
	samples["core.checkpoint_full_ms"] = st.fullMS
	samples["core.checkpoint_full_bytes"] = st.fullBytes
	samples["core.checkpoint_delta_ms"] = st.deltaMS
	samples["core.checkpoint_delta_bytes"] = st.deltaBytes
	samples["core.restore_ms"] = st.restoreMS
	add("core.rotate_ms", st.rotateMS)

	split, err := splitPass(tr.Path, cfg)
	if err != nil {
		return nil, fmt.Errorf("splitter pass: %w", err)
	}
	add("cluster.split_ns_per_pkt", perDiv(float64(split), pkts))

	run, err := b.runZoomqoe(w, tr, w.workers)
	if err == nil {
		err = checkRun(w, tr, run, run.stdoutSHA)
	}
	res.attempt("zoomqoe run for on-disk state", err)
	chain := chainFiles(run.dir)
	add("engine.ckpt_files", float64(chain.fulls+chain.deltas))
	add("engine.ckpt_disk_mb", float64(chain.bytes)/(1<<20))

	res.Metrics = make(map[string]metric)
	res.Spread = make(map[string]summary)
	for _, m := range perLayerMetrics {
		s := summarize(samples[m.name])
		res.Spread[m.name] = s
		res.Metrics[m.name] = metric{s.Median, m.unit}
	}

	path := filepath.Join(b.out, "trace-"+w.name+".json")
	data, err := json.Marshal(spanFile{Workload: w.name, Seed: b.seed, Counts: last.n, Spans: last.tr.spans})
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("writing span file: %w", err)
	}
	b.logf("%s: %d spans of the last traced pass in %s", w.name, len(last.tr.spans), path)
	return res, nil
}
