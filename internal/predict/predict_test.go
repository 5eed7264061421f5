package predict

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"zoomlens/internal/features"
)

// synthRows builds a separable labeled set: good streams are fast and
// smooth, degraded ones slower and burstier, bad ones sparse with long
// gaps — the shape congestion actually produces.
func synthRows(n int) []features.LabeledRow {
	t0 := time.Date(2022, 5, 5, 9, 0, 0, 0, time.UTC)
	mk := func(i int, lab features.Label, pkts uint64, bytesPer uint64, iatMean, iatStd, iatMax float64, bursts int, entropy float64) features.LabeledRow {
		jitter := float64(i%7) * 0.13
		return features.LabeledRow{
			Row: features.Row{
				Start:        t0.Add(time.Duration(i) * time.Second),
				Window:       time.Second,
				Packets:      pkts,
				WireBytes:    pkts * bytesPer,
				PayloadBytes: pkts * (bytesPer - 70),
				IATMeanMS:    iatMean + jitter,
				IATStdMS:     iatStd + jitter/2,
				IATMaxMS:     iatMax + jitter*3,
				Bursts:       bursts,
				MaxBurstPkts: int(pkts) / max(bursts, 1),
				SizeMeanB:    float64(bytesPer),
				SizeStdB:     10 + jitter,
				SizeEntropy:  entropy,
			},
			Label: lab,
		}
	}
	var rows []features.LabeledRow
	for i := 0; i < n; i++ {
		rows = append(rows,
			mk(i, features.LabelGood, 30, 1000, 33, 3, 40, 30, 0.5),
			mk(i, features.LabelDegraded, 18, 700, 55, 25, 160, 9, 1.5),
			mk(i, features.LabelBad, 6, 400, 160, 90, 500, 3, 2.5),
		)
	}
	return rows
}

func TestTrainBeatsBaseline(t *testing.T) {
	rows := synthRows(40)
	m, err := Train(rows, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ev := Evaluate(m, rows)
	if ev.N != len(rows) {
		t.Fatalf("evaluated %d rows (want %d)", ev.N, len(rows))
	}
	if ev.Accuracy <= ev.Baseline {
		t.Fatalf("accuracy %.3f does not beat majority baseline %.3f", ev.Accuracy, ev.Baseline)
	}
	if ev.Accuracy < 0.9 {
		t.Fatalf("accuracy %.3f on separable data (want >= 0.9); confusion %v", ev.Accuracy, ev.Confusion)
	}
}

func TestTrainDeterministic(t *testing.T) {
	rows := synthRows(10)
	m1, err := Train(rows, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(rows, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("two trainings on identical data diverged")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rows := synthRows(10)
	m, err := Train(rows, TrainOptions{Epochs: 50})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatal("save/load round trip changed the model")
	}
	for i := range rows {
		wantLab, _ := m.Predict(&rows[i].Row)
		gotLab, _ := got.Predict(&rows[i].Row)
		if wantLab != gotLab {
			t.Fatalf("row %d: loaded model predicts %v, original %v", i, gotLab, wantLab)
		}
	}
}

func TestLoadRejects(t *testing.T) {
	rows := synthRows(5)
	m, err := Train(rows, TrainOptions{Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	encode := func(mut func(*Model)) string {
		c := *m
		c.Features = append([]string(nil), m.Features...)
		c.Mean = append([]float64(nil), m.Mean...)
		c.Std = append([]float64(nil), m.Std...)
		c.Weights = [][]float64{append([]float64(nil), m.Weights[0]...), m.Weights[1], m.Weights[2]}
		mut(&c)
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	cases := map[string]string{
		"garbage":         "{not json",
		"bad version":     encode(func(c *Model) { c.Version = 99 }),
		"feature rename":  encode(func(c *Model) { c.Features[0] = "other" }),
		"feature missing": encode(func(c *Model) { c.Features = c.Features[:len(c.Features)-1] }),
		"zero std":        encode(func(c *Model) { c.Std = make([]float64, len(c.Std)) }),
		"subnormal std":   encode(func(c *Model) { c.Std[3] = 1e-310 }),
		"negative std":    encode(func(c *Model) { c.Std[3] = -1 }),
		"huge mean":       encode(func(c *Model) { c.Mean[0] = 1e300 }),
		"huge weight":     encode(func(c *Model) { c.Weights[0][2] = -1e300 }),
		"short weights":   encode(func(c *Model) { c.Weights = c.Weights[:1] }),
	}
	for name, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Load accepted a bad model", name)
		}
	}
}

func TestTrainRejectsEmpty(t *testing.T) {
	if _, err := Train(nil, TrainOptions{}); err == nil {
		t.Fatal("Train accepted an empty set")
	}
}

func TestVectorMatchesFeatureNames(t *testing.T) {
	r := features.Row{Packets: 10, WireBytes: 5000, PayloadBytes: 4000, Window: time.Second}
	if got := len(Vector(&r)); got != len(FeatureNames) {
		t.Fatalf("Vector has %d dims, FeatureNames %d", got, len(FeatureNames))
	}
}

func TestPredictProbabilities(t *testing.T) {
	rows := synthRows(10)
	m, err := Train(rows, TrainOptions{Epochs: 50})
	if err != nil {
		t.Fatal(err)
	}
	_, probs := m.Predict(&rows[0].Row)
	checkProbs(t, probs)
}

// TestHostileStdNeverLabelsGood is the regression test for a model file
// with a subnormal std: standardizing any input off the mean gave ±Inf, a
// zero weight times that made every class score NaN, and Predict's
// comparisons all failing returned "good" for every window. Load refuses
// the file, and Predict on such a model still returns probabilities that
// are finite and sum to 1.
func TestHostileStdNeverLabelsGood(t *testing.T) {
	rows := synthRows(5)
	m, err := Train(rows, TrainOptions{Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	m.Std[0] = 1e-310
	for k := range m.Weights {
		m.Weights[k][0] = 0
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("Load accepted a model with std 1e-310")
	}
	for i := range rows {
		_, probs := m.Predict(&rows[i].Row)
		checkProbs(t, probs)
	}
}

// checkProbs fails unless probs is a probability vector over the labels:
// finite entries in [0, 1] that sum to 1.
func checkProbs(t *testing.T, probs []float64) {
	t.Helper()
	if len(probs) != features.NumLabels {
		t.Fatalf("got %d probabilities", len(probs))
	}
	var sum float64
	for _, p := range probs {
		if !(p >= 0 && p <= 1) {
			t.Fatalf("probability %v out of range: %v", p, probs)
		}
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum to %v: %v", sum, probs)
	}
}
