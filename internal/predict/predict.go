// Package predict turns streaming feature rows into QoE labels — the
// §8 application of the paper: once passive feature extraction runs in
// the network, a lightweight model trained against client-side ground
// truth can infer user experience for every stream the tap sees,
// including the overwhelming majority with no SDK instrumentation.
//
// The model is multinomial logistic regression over the header-free
// feature columns, trained by deterministic full-batch gradient descent
// (zero init, fixed epochs, no randomness — the same data always yields
// the same model). Pure Go, no external dependencies: inference is a
// dot product per class, cheap enough to run inline on the drain path
// of a live tap.
package predict

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"zoomlens/internal/features"
)

// FeatureNames lists the model inputs, in vector order. All are
// derivable from encrypted traffic (packet sizes and timing only);
// none touches the RTP header oracle columns.
var FeatureNames = []string{
	"pkt_rate",
	"wire_kbps",
	"payload_ratio",
	"iat_mean_ms",
	"iat_std_ms",
	"iat_max_ms",
	"bursts",
	"max_burst_pkts",
	"size_mean_b",
	"size_std_b",
	"size_entropy_bits",
}

// Vector extracts the model input vector from one feature row.
func Vector(r *features.Row) []float64 {
	ratio := 0.0
	if r.WireBytes > 0 {
		ratio = float64(r.PayloadBytes) / float64(r.WireBytes)
	}
	return []float64{
		r.PktRate(),
		r.WireKbps(),
		ratio,
		r.IATMeanMS,
		r.IATStdMS,
		r.IATMaxMS,
		float64(r.Bursts),
		float64(r.MaxBurstPkts),
		r.SizeMeanB,
		r.SizeStdB,
		r.SizeEntropy,
	}
}

// Model is a trained softmax classifier with input standardization
// folded in. The zero Model is not usable; build one with Train or
// Load.
type Model struct {
	// Version guards the JSON encoding.
	Version int `json:"version"`
	// Features names the input columns, in vector order. Load rejects
	// a file whose columns do not match the running binary's extractor.
	Features []string `json:"features"`
	// Mean and Std standardize each input: x' = (x - mean) / std.
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
	// Weights is one row per label (features.NumLabels), each holding
	// one weight per input plus a trailing bias term.
	Weights [][]float64 `json:"weights"`
}

// modelVersion is the current JSON encoding version.
const modelVersion = 1

// Bounds that keep every class score finite. Load refuses a model with a
// mean or weight beyond maxParam, or a std below the smallest normal
// float64 (a subnormal std standardizes any input off the mean to ±Inf);
// Predict holds each standardized input to ±maxInput. A score is then at
// most (dims+1)·maxParam·maxInput in magnitude, far from overflow, so the
// softmax never sees Inf − Inf and never yields NaN. Trained models sit
// orders of magnitude inside both bounds.
const (
	maxParam = 1e12
	maxInput = 1e12
	minStd   = 0x1p-1022 // smallest normal float64
)

// TrainOptions tunes the gradient descent. The zero value selects the
// defaults.
type TrainOptions struct {
	// Epochs is the number of full passes over the training set
	// (default 300).
	Epochs int
	// LearningRate is the gradient step size (default 0.1).
	LearningRate float64
	// L2 is the weight decay coefficient applied to everything but the
	// bias (default 1e-4).
	L2 float64
}

func (o *TrainOptions) defaults() {
	if o.Epochs <= 0 {
		o.Epochs = 300
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.1
	}
	if o.L2 < 0 {
		o.L2 = 0
	} else if o.L2 == 0 {
		o.L2 = 1e-4
	}
}

// Train fits a model on labeled rows. Training is deterministic: the
// same rows in the same order always produce bit-identical weights.
func Train(rows []features.LabeledRow, opts TrainOptions) (*Model, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("predict: no training rows")
	}
	opts.defaults()
	dims := len(FeatureNames)
	m := &Model{
		Version:  modelVersion,
		Features: append([]string(nil), FeatureNames...),
		Mean:     make([]float64, dims),
		Std:      make([]float64, dims),
		Weights:  make([][]float64, features.NumLabels),
	}
	for k := range m.Weights {
		m.Weights[k] = make([]float64, dims+1)
	}

	// Standardization from the training set; a constant column gets
	// std 1 so it contributes zero after centering instead of NaN.
	xs := make([][]float64, len(rows))
	for i := range rows {
		xs[i] = Vector(&rows[i].Row)
		for j, v := range xs[i] {
			m.Mean[j] += v
		}
	}
	n := float64(len(rows))
	for j := range m.Mean {
		m.Mean[j] /= n
	}
	for i := range xs {
		for j, v := range xs[i] {
			d := v - m.Mean[j]
			m.Std[j] += d * d
		}
	}
	for j := range m.Std {
		m.Std[j] = math.Sqrt(m.Std[j] / n)
		if m.Std[j] == 0 {
			m.Std[j] = 1
		}
	}
	for i := range xs {
		for j := range xs[i] {
			xs[i][j] = (xs[i][j] - m.Mean[j]) / m.Std[j]
		}
	}

	// Full-batch softmax gradient descent.
	grad := make([][]float64, features.NumLabels)
	for k := range grad {
		grad[k] = make([]float64, dims+1)
	}
	probs := make([]float64, features.NumLabels)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		for k := range grad {
			for j := range grad[k] {
				grad[k][j] = 0
			}
		}
		for i, x := range xs {
			m.softmaxStd(x, probs)
			y := int(rows[i].Label)
			if y < 0 || y >= features.NumLabels {
				return nil, fmt.Errorf("predict: row %d has label %d out of range", i, y)
			}
			for k := range probs {
				d := probs[k]
				if k == y {
					d -= 1
				}
				g := grad[k]
				for j, xv := range x {
					g[j] += d * xv
				}
				g[dims] += d
			}
		}
		step := opts.LearningRate / n
		for k, g := range grad {
			w := m.Weights[k]
			for j := 0; j < dims; j++ {
				w[j] -= step*g[j] + opts.LearningRate*opts.L2*w[j]
			}
			w[dims] -= step * g[dims]
		}
	}
	return m, nil
}

// softmaxStd computes class probabilities for an already-standardized
// input vector, writing into probs (len features.NumLabels).
func (m *Model) softmaxStd(x []float64, probs []float64) {
	maxZ := math.Inf(-1)
	for k, w := range m.Weights {
		z := w[len(x)]
		for j, xv := range x {
			z += w[j] * xv
		}
		probs[k] = z
		if z > maxZ {
			maxZ = z
		}
	}
	var sum float64
	for k, z := range probs {
		e := math.Exp(z - maxZ)
		probs[k] = e
		sum += e
	}
	for k := range probs {
		probs[k] /= sum
	}
}

// Predict classifies one feature row, returning the label and the full
// class probability vector (indexed by features.Label).
func (m *Model) Predict(r *features.Row) (features.Label, []float64) {
	x := Vector(r)
	for j := range x {
		v := (x[j] - m.Mean[j]) / m.Std[j]
		if math.IsNaN(v) { // an input the extractor never produces
			v = 0
		}
		x[j] = max(-maxInput, min(maxInput, v))
	}
	probs := make([]float64, len(m.Weights))
	m.softmaxStd(x, probs)
	best := 0
	for k := 1; k < len(probs); k++ {
		if probs[k] > probs[best] {
			best = k
		}
	}
	return features.Label(best), probs
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Load reads a model written by Save, validating version, feature
// columns, and weight shape against the running binary.
func Load(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("predict: decoding model: %w", err)
	}
	if m.Version != modelVersion {
		return nil, fmt.Errorf("predict: model version %d not supported (want %d)", m.Version, modelVersion)
	}
	if len(m.Features) != len(FeatureNames) {
		return nil, fmt.Errorf("predict: model has %d features (binary extracts %d)", len(m.Features), len(FeatureNames))
	}
	for i, name := range m.Features {
		if name != FeatureNames[i] {
			return nil, fmt.Errorf("predict: model feature %d is %q (binary extracts %q)", i, name, FeatureNames[i])
		}
	}
	dims := len(FeatureNames)
	if len(m.Mean) != dims || len(m.Std) != dims || len(m.Weights) != features.NumLabels {
		return nil, fmt.Errorf("predict: model shape mismatch")
	}
	for k, w := range m.Weights {
		if len(w) != dims+1 {
			return nil, fmt.Errorf("predict: weight row %d has %d entries (want %d)", k, len(w), dims+1)
		}
	}
	for j, s := range m.Std {
		if !(s >= minStd) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("predict: model std[%d] = %v is unusable", j, s)
		}
		if !(math.Abs(m.Mean[j]) <= maxParam) {
			return nil, fmt.Errorf("predict: model mean[%d] = %v is out of range", j, m.Mean[j])
		}
	}
	for k, w := range m.Weights {
		for j, v := range w {
			if !(math.Abs(v) <= maxParam) {
				return nil, fmt.Errorf("predict: model weight [%d][%d] = %v is out of range", k, j, v)
			}
		}
	}
	return &m, nil
}

// Eval summarizes model quality on a labeled set.
type Eval struct {
	// N is the number of evaluated rows.
	N int
	// Correct counts rows the model labeled correctly.
	Correct int
	// Accuracy is Correct/N.
	Accuracy float64
	// Baseline is the majority-class accuracy on the same set — the
	// floor any useful model must beat.
	Baseline float64
	// Confusion[actual][predicted] counts outcomes.
	Confusion [features.NumLabels][features.NumLabels]int
}

// Evaluate scores the model against labeled rows.
func Evaluate(m *Model, rows []features.LabeledRow) Eval {
	var ev Eval
	var byLabel [features.NumLabels]int
	for i := range rows {
		y := int(rows[i].Label)
		if y < 0 || y >= features.NumLabels {
			continue
		}
		pred, _ := m.Predict(&rows[i].Row)
		ev.N++
		byLabel[y]++
		ev.Confusion[y][int(pred)]++
		if int(pred) == y {
			ev.Correct++
		}
	}
	if ev.N == 0 {
		return ev
	}
	ev.Accuracy = float64(ev.Correct) / float64(ev.N)
	maxC := 0
	for _, c := range byLabel {
		if c > maxC {
			maxC = c
		}
	}
	ev.Baseline = float64(maxC) / float64(ev.N)
	return ev
}
