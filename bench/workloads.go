package main

import (
	"fmt"
	"net/netip"
	"path/filepath"
	"time"

	"zoomlens"
)

// sizes scales every generator; the smoke test swaps in tiny ones.
type sizes struct {
	campusPackets int
	tapFrames     int
	tapPerZoom    int // mean non-Zoom frames per Zoom frame
	churnStreams  int
	churnPackets  int
}

// benchSizes is what BENCHMARK.json's numbers are measured on. They are
// cut from the issue's sizing (2.7 M / 8 M / 1 M packets) so that one
// invocation — five set-ups, a reference run and `--seconds` of timed process
// runs — stays near 30 s and the driver's 92 invocations fit its cap.
var benchSizes = sizes{
	campusPackets: 400_000,
	tapFrames:     600_000,
	tapPerZoom:    49,
	churnStreams:  1_500,
	churnPackets:  100_000,
}

// workload is one input file plus the zoomqoe command line run on it.
type workload struct {
	name string
	why  string
	gen  func(path string, seed int64, sz sizes) (traceInfo, error)
	// workers is zoomqoe's -workers.
	workers int
	// continuous turns on TTL eviction, the checkpoint chain and report
	// rotation, with cadences derived from the trace's capture span.
	continuous bool
}

var workloads = []workload{
	{
		name:    "campus_seq",
		why:     "sequential analysis of a campus capture: decode, flow table and per-stream metrics are two thirds of the cost, the unbuffered record read most of the rest",
		gen:     genCampus,
		workers: 1,
	},
	{
		name:    "campus_par",
		why:     "same file at -workers 2: dispatcher raw scan, SPSC rings, shard obs logs and the reconciliation merge that campus_seq bypasses",
		gen:     genCampus,
		workers: 2,
	},
	{
		name:    "tap_background",
		why:     "border-tap mix, ~98% small non-Zoom frames: read, L2-L4 parse and capture-filter reject are nearly all the cost; decode/metrics changes predict no change",
		gen:     genTap,
		workers: 1,
	},
	{
		name:       "churn_state",
		why:        "thousands of churning streams with TTL eviction, full+delta checkpoint chain and rotation: insert/evict/serialize instead of steady lookup",
		gen:        genChurn,
		workers:    1,
		continuous: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// flowTTL is the idle-eviction horizon of a continuous-operation run
// over a capture of the given span. Like the cadences below it keeps the
// issue's proportions (2 s TTL, 10 s fulls, 2 s deltas, 20 s windows on a
// 50 s capture) on a capture cut to fit the run-time budget.
func flowTTL(span time.Duration) time.Duration { return span / 25 }

// continuousArgs are zoomqoe's continuous-operation flags, writing under
// dir: a full checkpoint every quarter of the span, a delta every
// twentieth, a report window every 2/5.
func continuousArgs(dir string, span time.Duration) []string {
	return []string{
		"-flow-ttl", flowTTL(span).String(),
		"-checkpoint", filepath.Join(dir, "ck"),
		"-checkpoint-interval", (span / 4).String(),
		"-checkpoint-delta", (span / 20).String(),
		"-rotate", (span * 2 / 5).String(),
		"-rotate-out", filepath.Join(dir, "win"),
	}
}

// args is the zoomqoe command line of one process run; dir receives the
// run's checkpoint chain and window reports.
func (w workload) args(tr traceInfo, workers int, dir string) []string {
	a := []string{"-i", tr.Path, "-workers", fmt.Sprint(workers), "-what", "loss"}
	if w.continuous {
		a = append(a, continuousArgs(dir, tr.Span)...)
	}
	return a
}

func zoomNetworks() []netip.Prefix { return zoomlens.DefaultZoomNetworks() }
