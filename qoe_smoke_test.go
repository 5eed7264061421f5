package zoomlens

// End-to-end smoke for the header-free QoE inference loop (§8 of the
// paper): simulate a congested meeting with SDK-style ground truth,
// stream feature rows out of the analyzer, train the logistic model,
// and require it to beat the majority-class baseline on a held-out
// meeting it never saw. BenchmarkFeatureOverhead (`make qoe-smoke`) gates
// the feature layer's ingest overhead at ≤200 ns per packet over the
// featureless ingest path.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"zoomlens/internal/engine"
	"zoomlens/internal/features"
	"zoomlens/internal/netsim"
	"zoomlens/internal/pcap"
	"zoomlens/internal/predict"
	"zoomlens/internal/qos"
	"zoomlens/internal/zoom"
)

// qoeLabeledRows simulates one congested two-party meeting, extracts
// streaming feature rows, and joins the video rows against the clients'
// ground-truth QoS series — the zoomsim -congest -qos-out →
// zoomfeatures -train data path, in process.
func qoeLabeledRows(tb testing.TB, seed int64, dur time.Duration) []features.LabeledRow {
	tb.Helper()
	opts := DefaultWorldOptions()
	opts.Seed = seed
	world := NewWorld(opts)
	var at []time.Time
	var frames [][]byte
	world.Monitor = func(t time.Time, frame []byte) {
		cp := make([]byte, len(frame))
		copy(cp, frame)
		at = append(at, t)
		frames = append(frames, cp)
	}
	m := world.NewMeeting()
	a := world.NewClient("alice", true)
	b := world.NewClient("bob", true)
	m.Join(a, DefaultMediaSet())
	m.Join(b, DefaultMediaSet())
	world.WanDown.Episodes = append(world.WanDown.Episodes,
		netsim.Congestion{Start: opts.Start.Add(dur / 4), End: opts.Start.Add(dur/4 + 15*time.Second), ExtraDelay: 25 * time.Millisecond, ExtraJitter: 35 * time.Millisecond, LossRate: 0.02},
		netsim.Congestion{Start: opts.Start.Add(2 * dur / 3), End: opts.Start.Add(2*dur/3 + 20*time.Second), ExtraDelay: 35 * time.Millisecond, ExtraJitter: 45 * time.Millisecond, LossRate: 0.03},
	)
	world.Run(opts.Start.Add(dur))

	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
		FeatureWindow:  time.Second,
	}
	eng := NewAnalyzer(cfg)
	for i := range frames {
		eng.Packet(at[i], frames[i])
	}
	eng.Finish()
	rows := eng.DrainFeatures()

	var entries []qos.Entry
	for _, c := range []*SimClient{a, b} {
		if rec := c.QoS(); rec != nil {
			entries = append(entries, rec.Entries...)
		}
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Time.Before(entries[j].Time) })

	video := rows[:0]
	for _, r := range rows {
		if r.ID.Key.Type == zoom.TypeVideo {
			video = append(video, r)
		}
	}
	labeled := features.Join(video, entries, 30)
	if len(labeled) == 0 {
		tb.Fatalf("no labeled rows: %d video rows, %d QoS entries", len(video), len(entries))
	}
	return labeled
}

// TestQoESmoke trains on one congested meeting and scores a different
// seed's meeting: the model must beat the majority baseline on data it
// never saw, or the whole inference loop is decorative.
func TestQoESmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	train := qoeLabeledRows(t, 1, 2*time.Minute)
	heldout := qoeLabeledRows(t, 7, 90*time.Second)

	model, err := predict.Train(train, predict.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fit := predict.Evaluate(model, train)
	ev := predict.Evaluate(model, heldout)
	t.Logf("train n=%d acc=%.3f base=%.3f | heldout n=%d acc=%.3f base=%.3f",
		fit.N, fit.Accuracy, fit.Baseline, ev.N, ev.Accuracy, ev.Baseline)

	if fit.Baseline >= 1 {
		t.Fatalf("degenerate training set: single-class baseline %.3f", fit.Baseline)
	}
	if fit.Accuracy <= fit.Baseline {
		t.Errorf("training accuracy %.3f does not beat baseline %.3f", fit.Accuracy, fit.Baseline)
	}
	if ev.Accuracy <= ev.Baseline {
		t.Errorf("held-out accuracy %.3f does not beat baseline %.3f", ev.Accuracy, ev.Baseline)
	}
	if ev.Accuracy < 0.80 {
		t.Errorf("held-out accuracy %.3f below the 0.80 floor", ev.Accuracy)
	}
}

// TestRunFromPredictions runs RunFrom's live QoE path end to end on
// the shared benchmark trace: a run without -model classifies nothing and
// writes no prediction line; a run with a model trained here on the first
// run's rows classifies every video row exactly once, each as one
// qoe_prediction line on the snapshot sink, and leaves the rows as they
// were.
func TestRunFromPredictions(t *testing.T) {
	raw, _ := ingestTrace(t)
	_, _, cfg := benchTrace(t)
	dir := t.TempDir()
	runWith := func(name, model string) (*engine.Run, string, []byte) {
		t.Helper()
		csv, snap := filepath.Join(dir, name+".csv"), filepath.Join(dir, name+".jsonl")
		f := &engine.Flags{Obs: &engine.ObsFlags{SnapshotOut: snap}, Workers: 1, Features: csv, Model: model}
		s, err := pcap.OpenStream(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		run, err := f.RunFrom(cfg.ZoomNetworks, s.NextInto, s.Truncated)
		if err != nil {
			t.Fatal(err)
		}
		run.Close()
		rows, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		return run, snap, rows
	}
	predictionLines := func(path string) []map[string]any {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var out []map[string]any
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			var line map[string]any
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if line["type"] == "qoe_prediction" {
				out = append(out, line)
			}
		}
		return out
	}

	plain, plainSnap, plainCSV := runWith("plain", "")
	if plain.Predictions != 0 || len(predictionLines(plainSnap)) != 0 {
		t.Fatalf("a run without -model made %d predictions", plain.Predictions)
	}
	rows, err := features.ReadCSV(bytes.NewReader(plainCSV))
	if err != nil {
		t.Fatal(err)
	}
	// The labels are arbitrary: the test needs a valid model, not a good one.
	var labeled []features.LabeledRow
	for _, r := range rows {
		if r.ID.Key.Type == zoom.TypeVideo {
			labeled = append(labeled, features.LabeledRow{Row: r, Label: features.Label(len(labeled) % features.NumLabels)})
		}
	}
	if len(labeled) == 0 {
		t.Fatal("the trace yielded no video rows")
	}
	model, err := predict.Train(labeled, predict.TrainOptions{Epochs: 20})
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "model.json")
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Save(mf); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}

	live, liveSnap, liveCSV := runWith("live", modelPath)
	if !bytes.Equal(liveCSV, plainCSV) {
		t.Error("-model changed the feature rows")
	}
	lines := predictionLines(liveSnap)
	if live.Predictions != len(labeled) || len(lines) != len(labeled) {
		t.Fatalf("%d predictions, %d qoe_prediction lines; want one per video row (%d)", live.Predictions, len(lines), len(labeled))
	}
	for _, l := range lines {
		lab, _ := l["label"].(string)
		sum := 0.0
		for _, k := range []string{"p_good", "p_degraded", "p_bad"} {
			p, _ := l[k].(float64)
			sum += p
		}
		if (lab != "good" && lab != "degraded" && lab != "bad") || math.Abs(sum-1) > 1e-9 {
			t.Fatalf("prediction line %v: label %q, probabilities sum to %v", l, lab, sum)
		}
	}
}

// BenchmarkFeatureOverhead measures the feature windower's per-packet
// ingest cost over a featureless run of the same trace. The gate is on
// the cost the layer adds (features − base ≤ maxFeatureOverheadNs per
// packet), not on its ratio to the base: the base is what every ingest
// optimisation shrinks, so a ratio gate tightens with each one though the
// feature layer did not move.
func BenchmarkFeatureOverhead(b *testing.B) {
	raw, _ := ingestTrace(b)
	_, frames, baseCfg := benchTrace(b)
	featCfg := baseCfg
	featCfg.FeatureWindow = time.Second
	n := len(frames)

	// The two variants are measured back to back inside each round and
	// the gate takes the pair with the smallest difference: pairing
	// cancels the slow thermal/scheduler drift that dominates run-to-run
	// variance on a shared box, which a tight gate would otherwise
	// misread as feature-layer cost.
	measure := func(cfg Config) float64 {
		const passes = 40
		start := time.Now()
		for j := 0; j < passes; j++ {
			if err := ingestAnalyzePass(raw, cfg, 1); err != nil {
				b.Fatal(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(passes*n)
	}
	const maxFeatureOverheadNs = 200
	for i := 0; i < b.N; i++ {
		measure(baseCfg) // warmup
		baseNs, featNs := 0.0, 0.0
		for round := 0; round < 6; round++ {
			base := measure(baseCfg)
			feat := measure(featCfg)
			if round == 0 || feat-base < featNs-baseNs {
				baseNs, featNs = base, feat
			}
		}
		b.ReportMetric(baseNs, "base-ns/pkt")
		b.ReportMetric(featNs, "features-ns/pkt")
		b.ReportMetric(featNs-baseNs, "added-ns/pkt")
		if featNs-baseNs > maxFeatureOverheadNs {
			b.Errorf("feature layer adds %.0f ns per packet, over the %d ns gate", featNs-baseNs, maxFeatureOverheadNs)
		}
	}
}
