// Command bench is the repository benchmark: it builds zoomqoe from the
// checkout, generates seeded capture files, times the real binary on them
// end to end, and breaks the cost down per layer in a separate traced
// pass. See README.md for the metric and workload definitions.
//
//	bash bench/run.sh --workload campus_seq --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1          # every workload, both modes
//	bash bench/run.sh --selfcheck       # two end-to-end sets must agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef mirrors one BENCHMARK.json metric entry; bound is 0 for
// per-layer metrics, which have none. The end-to-end bounds are three
// times the widest typical seed-to-seed spread on the recording sandbox
// (README, "Noise"), capped at the contract's 25 %.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var e2eMetrics = []metricDef{
	{"pkts_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_pkt", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

var perLayerMetrics = []metricDef{
	{name: "pcap.read_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "pcap.read_allocs_per_pkt", unit: "count", better: "lower"},
	{name: "layers.parse_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "layers.parse_fail_share", unit: "share", better: "lower"},
	{name: "capture.classify_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "capture.keep_share", unit: "share", better: "lower"},
	{name: "rtcproto.decode_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "rtcproto.decoded_share", unit: "share", better: "higher"},
	{name: "flow.observe_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "flow.new_stream_share", unit: "share", better: "lower"},
	{name: "flow.evict_ns_per_stream", unit: "ns", better: "lower"},
	{name: "meeting.dedup_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "metrics.copymatch_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "metrics.observe_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "metrics.finish_ms", unit: "ms", better: "lower"},
	{name: "features.observe_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "features.rows", unit: "count", better: "higher"},
	{name: "predict.ns_per_row", unit: "ns", better: "lower"},
	{name: "core.seq_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "core.seq_allocs_per_pkt", unit: "count", better: "lower"},
	{name: "core.seq_bytes_per_pkt", unit: "B", better: "lower"},
	{name: "core.finish_ms", unit: "ms", better: "lower"},
	{name: "core.ledger_gap_share", unit: "share", better: "lower"},
	{name: "trace_overhead_share", unit: "share", better: "lower"},
	{name: "core.par_dispatch_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "core.par_finish_ms", unit: "ms", better: "lower"},
	{name: "core.par_speedup", unit: "x", better: "higher"},
	{name: "core.checkpoint_full_ms", unit: "ms", better: "lower"},
	{name: "core.checkpoint_full_bytes", unit: "B", better: "lower"},
	{name: "core.checkpoint_delta_ms", unit: "ms", better: "lower"},
	{name: "core.checkpoint_delta_bytes", unit: "B", better: "lower"},
	{name: "core.restore_ms", unit: "ms", better: "lower"},
	{name: "core.rotate_ms", unit: "ms", better: "lower"},
	{name: "engine.ckpt_files", unit: "count", better: "lower"},
	{name: "engine.ckpt_disk_mb", unit: "MB", better: "lower"},
	{name: "cluster.split_ns_per_pkt", unit: "ns", better: "lower"},
}

// environment is the noise-discipline header of every output.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == spawnArg {
		os.Exit(spawn(os.Args[2:]))
	}
	var (
		root      = flag.String("root", "..", "checkout root; the default suits a run from inside bench/")
		name      = flag.String("workload", "", "workload to run (default: all of them, end to end and traced)")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Int("seconds", 10, "how long one invocation measures")
		traced    = flag.Int("trace", 0, "0: end-to-end metrics of the built binary; 1: per-layer metrics of the traced in-process pass")
		selfcheck = flag.Bool("selfcheck", false, "run two end-to-end sets back to back and fail if a metric moves by more than its bound")
	)
	flag.Parse()
	if err := run(*root, *name, *seed, *seconds, *traced == 1, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(root, name string, seed int64, seconds int, traced, selfcheck bool) error {
	b, cleanup, err := newBench(root, seed, benchSizes)
	if err != nil {
		return err
	}
	defer cleanup()
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(b.root), Seed: seed, Seconds: seconds,
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, env.Seed, env.Seconds)

	switch {
	case selfcheck:
		return b.selfcheck(seconds)
	case name == "":
		failed := 0
		for _, w := range workloads {
			for _, tr := range []bool{false, true} {
				res, err := b.measure(w, seconds, tr, env)
				if err != nil {
					return err
				}
				failed += res.Failed
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d operations failed", failed)
		}
		return nil
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, err := b.measure(w, seconds, traced, env)
	if err != nil {
		return err
	}
	// The contract's result line: last on standard output.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// newBench prepares the build and scratch directories under the
// checkout's .bench_build; cleanup removes the scratch directory.
func newBench(root string, seed int64, sz sizes) (*bench, func(), error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	build := filepath.Join(root, ".bench_build")
	out := filepath.Join(build, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, nil, err
	}
	work, err := os.MkdirTemp(build, "work-")
	if err != nil {
		return nil, nil, err
	}
	b := &bench{
		root: root, work: work, out: out, bin: filepath.Join(build, "zoomqoe"), sizes: sz, seed: seed,
		logf: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	}
	return b, func() { os.RemoveAll(work) }, nil
}

// commit names the measured commit when the checkout is a git clone.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// measure runs one workload in one mode, prints every metric by name with
// its unit, median, quartiles and sample size, and writes the same to
// <out>/result-<workload>-<mode>.json.
func (b *bench) measure(w workload, seconds int, traced bool, env environment) (*result, error) {
	var res *result
	var err error
	mode, defs := "e2e", e2eMetrics
	if traced {
		mode, defs = "layers", perLayerMetrics
		res, err = b.runTrace(w, seconds)
	} else {
		res, err = b.runE2E(w, seconds)
	}
	if err != nil {
		return nil, err
	}
	fmt.Printf("== %s (%s): %s\n", w.name, mode, w.why)
	for _, d := range defs {
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf("  regression bound %.0f%%", d.bound*100)
		}
		fmt.Printf("%-32s %14.4f %-6s %s is better%s\n", d.name, res.Metrics[d.name].Value, d.unit, d.better, bound)
	}
	names := make([]string, 0, len(res.Spread))
	for n := range res.Spread {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := res.Spread[n]
		fmt.Printf("  sample %-30s min %.6g  median %.6g  q1 %.6g  q3 %.6g  n=%d\n", n, s.Min, s.Median, s.Q1, s.Q3, s.N)
	}
	fmt.Printf("checks: %d attempted, %d failed (fail_share %.3f)\n", res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, f := range res.Failures {
		fmt.Println("  FAILED", f)
	}
	data, err := json.MarshalIndent(struct {
		Env environment `json:"env"`
		*result
	}{env, res}, "", "  ")
	if err != nil {
		return nil, err
	}
	return res, os.WriteFile(filepath.Join(b.out, fmt.Sprintf("result-%s-%s.json", w.name, mode)), data, 0o644)
}

// selfcheck runs the end-to-end set twice and compares the metrics.
func (b *bench) selfcheck(seconds int) error {
	var moved []string
	for _, w := range workloads {
		first, err := b.runE2E(w, seconds)
		if err != nil {
			return err
		}
		second, err := b.runE2E(w, seconds)
		if err != nil {
			return err
		}
		for _, d := range e2eMetrics {
			a, c := first.Metrics[d.name].Value, second.Metrics[d.name].Value
			worse := (c - a) / a
			if d.better == "higher" {
				worse = (a - c) / a
			}
			verdict := "ok"
			if worse > d.bound {
				verdict = "MOVED"
				moved = append(moved, w.name+"/"+d.name)
			}
			fmt.Printf("%-16s %-16s first %.6g  second %.6g  %+.1f%% (bound %.0f%%) %s\n", w.name, d.name, a, c, worse*100, d.bound*100, verdict)
		}
		if n := first.Failed + second.Failed; n > 0 {
			return fmt.Errorf("%s: %d operations failed: %v", w.name, n, append(first.Failures, second.Failures...))
		}
	}
	if len(moved) > 0 {
		return fmt.Errorf("two sets on one commit disagree beyond the bounds: %v", moved)
	}
	return nil
}
