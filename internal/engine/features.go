package engine

// Streaming feature export and live QoE inference: the driver side of
// the header-free pipeline. The engine's windower emits feature rows on
// the capture clock; the driver drains them periodically (drain cadence
// never affects row content or order), appends them to the -features
// CSV, and — with -model — runs each video row through the loaded
// model, surfacing predictions as Prometheus series and as JSON lines
// on the snapshot sink.

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"zoomlens/internal/features"
	"zoomlens/internal/obs"
	"zoomlens/internal/predict"
	"zoomlens/internal/rtcproto"
	"zoomlens/internal/zoom"
)

// featureSink fans drained feature rows out to their consumers.
type featureSink struct {
	// every is the trace-clock drain cadence: generous multiples of the
	// window so a drain almost always finds closed windows, floored so a
	// sub-second window does not drain on every packet burst.
	every time.Duration

	csv  *features.CSVWriter
	csvF *os.File // nil when the CSV goes to stdout or is disabled

	model *predict.Model
	jsonW io.Writer
	enc   *json.Encoder

	rows        int
	predictions int

	predTotal [features.NumLabels]*obs.Counter
	predLast  [features.NumLabels]*obs.Gauge
}

// newFeatureSink builds the sink from the parsed flags. window is the
// effective feature window (already defaulted by the caller).
func newFeatureSink(f *Flags, setup *ObsSetup, window time.Duration) (*featureSink, error) {
	s := &featureSink{every: 5 * window}
	if s.every < 5*time.Second {
		s.every = 5 * time.Second
	}
	switch f.Features {
	case "":
		// -model without a CSV: inference only.
	case "-":
		s.csv = features.NewCSVWriter(os.Stdout)
	default:
		cf, err := os.Create(f.Features)
		if err != nil {
			return nil, err
		}
		s.csvF = cf
		s.csv = features.NewCSVWriter(cf)
	}
	if f.Model != "" {
		mf, err := os.Open(f.Model)
		if err != nil {
			s.discard()
			return nil, err
		}
		m, err := predict.Load(mf)
		mf.Close()
		if err != nil {
			s.discard()
			return nil, err
		}
		s.model = m
		s.jsonW = setup.snapW
		s.enc = json.NewEncoder(s.jsonW)
		if setup.Registry != nil {
			for lab := 0; lab < features.NumLabels; lab++ {
				l := obs.Label{Key: "label", Value: features.Label(lab).String()}
				s.predTotal[lab] = setup.Registry.Counter("zoomlens_qoe_predictions_total",
					"video feature windows classified by the QoE model", l)
				s.predLast[lab] = setup.Registry.Gauge("zoomlens_qoe_streams",
					"video rows per predicted label in the most recent feature drain", l)
			}
		}
	}
	return s, nil
}

// qoePrediction is the JSON line emitted per classified video row.
type qoePrediction struct {
	Type        string    `json:"type"`
	WindowStart time.Time `json:"window_start"`
	WindowMS    int64     `json:"window_ms"`
	App         string    `json:"app"`
	SSRC        uint32    `json:"ssrc"`
	Flow        string    `json:"flow"`
	Label       string    `json:"label"`
	PGood       float64   `json:"p_good"`
	PDegraded   float64   `json:"p_degraded"`
	PBad        float64   `json:"p_bad"`
}

// drain consumes one batch of feature rows.
func (s *featureSink) drain(rows []features.Row) {
	if s == nil || len(rows) == 0 {
		return
	}
	s.rows += len(rows)
	if s.csv != nil {
		s.csv.WriteRows(rows)
	}
	if s.model == nil {
		return
	}
	var counts [features.NumLabels]int
	for i := range rows {
		r := &rows[i]
		if r.ID.Key.Type != zoom.TypeVideo {
			continue
		}
		lab, probs := s.model.Predict(r)
		s.predictions++
		counts[lab]++
		s.predTotal[lab].Inc()
		if err := s.enc.Encode(qoePrediction{
			Type:        "qoe_prediction",
			WindowStart: r.Start.UTC(),
			WindowMS:    r.Window.Milliseconds(),
			App:         rtcproto.NameOf(r.ID.Key.Proto),
			SSRC:        r.ID.Key.SSRC,
			Flow:        r.ID.Flow.String(),
			Label:       lab.String(),
			PGood:       probs[features.LabelGood],
			PDegraded:   probs[features.LabelDegraded],
			PBad:        probs[features.LabelBad],
		}); err != nil {
			log.Printf("qoe prediction: %v", err)
		}
	}
	for lab, n := range counts {
		s.predLast[lab].Set(int64(n))
	}
}

// close flushes the CSV and closes its file.
func (s *featureSink) close() error {
	if s == nil {
		return nil
	}
	var err error
	if s.csv != nil {
		if e := s.csv.Flush(); e != nil {
			err = fmt.Errorf("features csv: %w", e)
		}
	}
	if s.csvF != nil {
		if e := s.csvF.Close(); e != nil && err == nil {
			err = fmt.Errorf("features csv: %w", e)
		}
		s.csvF = nil
	}
	return err
}

// discard tears down a half-built sink on a construction error.
func (s *featureSink) discard() {
	if s == nil {
		return
	}
	if s.csvF != nil {
		s.csvF.Close()
		os.Remove(s.csvF.Name())
		s.csvF = nil
	}
}
