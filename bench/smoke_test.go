package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
)

// smokeSizes keeps every generator near 20k packets, so the whole
// harness — build, generators, process runs, output checks, traced pass,
// engine passes — runs end to end in seconds. No timing is asserted.
var smokeSizes = sizes{
	campusPackets: 20_000,
	tapFrames:     20_000,
	tapPerZoom:    9,
	churnStreams:  300,
	churnPackets:  20_000,
}

// TestMain lets the test binary stand in for the harness as the process
// launcher (see spawn).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == spawnArg {
		os.Exit(spawn(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func TestSmoke(t *testing.T) {
	b, cleanup, err := newBench("..", 7, smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	b.logf = t.Logf
	for _, w := range workloads {
		if w.workers > runtime.NumCPU() {
			t.Logf("%s skipped: needs %d CPUs", w.name, w.workers)
			continue
		}
		for mode, defs := range map[string][]metricDef{"e2e": e2eMetrics, "layers": perLayerMetrics} {
			var res *result
			if mode == "e2e" {
				res, err = b.runE2E(w, 0)
			} else {
				res, err = b.runTrace(w, 0)
			}
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, mode, err)
			}
			if res.Failed > 0 {
				t.Errorf("%s %s: %d of %d checks failed: %v", w.name, mode, res.Failed, res.Attempted, res.Failures)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s %s: %d metrics reported, %d defined", w.name, mode, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s %s: metric %s = %+v (reported %t)", w.name, mode, d.name, m, ok)
				}
			}
		}
	}
}

// TestManifest keeps BENCHMARK.json and the harness's own tables saying
// the same thing.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, harness has %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if manifest.Workloads[i].Name != w.name {
			t.Errorf("workload %d: manifest %q, harness %q", i, manifest.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, harness has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: manifest %+v, harness %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, e2eMetrics)
	check("per_layer", manifest.PerLayer, perLayerMetrics)
}
