// Command zoomfeatures is the header-free QoE inference workbench — the
// §8 application of the paper ("our system can help automatically
// generate large, feature-rich data sets from real-world traffic").
// It has three modes:
//
// Extract (default) streams per-stream feature vectors out of a capture
// as versioned CSV. The rows come from the engine's streaming windower
// — the same rows a live tap, a parallel run, or a cluster aggregation
// emits, byte-identical at any worker count:
//
//	zoomfeatures -i zoom.pcap > features.csv
//	zoomfeatures -i zoom.pcap -features features.csv -feature-window 1s
//
// Train fits the QoE model: feature rows joined against client-side
// ground truth (a zoomsim -qos-out log, or any log in the same format),
// labeled, and fed to deterministic logistic regression:
//
//	zoomfeatures -train -data features.csv -qos qos.csv -model model.json
//
// Eval scores a model against a labeled set, reporting accuracy versus
// the majority-class baseline:
//
//	zoomfeatures -eval -data features.csv -qos qos.csv -model model.json
//
// Extract mode takes the shared driver's input, engine-sizing,
// bounded-state, checkpoint/rotation, and live-observability flags
// (internal/engine); -model classifies live during extraction.
// None of the observability flags changes the CSV.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"zoomlens"
	"zoomlens/internal/engine"
	"zoomlens/internal/features"
	"zoomlens/internal/predict"
	"zoomlens/internal/qos"
	"zoomlens/internal/zoom"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("zoomfeatures: ")
	var (
		train     = flag.Bool("train", false, "fit a QoE model from -data joined with -qos, write it to -model")
		eval      = flag.Bool("eval", false, "score the -model against -data joined with -qos")
		dataPath  = flag.String("data", "", "feature CSV (from extract mode) for -train/-eval")
		qosPath   = flag.String("qos", "", "ground-truth QoS log (zoomsim -qos-out format) for -train/-eval")
		client    = flag.String("client", "", "label with this client's QoS series only (default: all clients, merged in time order)")
		targetFPS = flag.Float64("target-fps", 30, "nominal sender frame rate the labels grade against")
	)
	ef := engine.Register(flag.CommandLine)
	flag.Parse()

	if *train && *eval {
		log.Fatal("-train and -eval are separate modes; run them one at a time")
	}
	if *train || *eval {
		labeled := loadLabeled(*dataPath, *qosPath, *client, *targetFPS)
		if *train {
			runTrain(labeled, ef.Model)
		} else {
			runEval(labeled, ef.Model)
		}
		return
	}

	// Extract mode: the CSV destination defaults to stdout, and the
	// streaming feature layer is always on — it is the whole point of
	// this tool.
	if ef.Features == "" {
		ef.Features = "-"
	}
	run, err := ef.Run(zoomlens.DefaultZoomNetworks())
	if err != nil {
		log.Fatal(err)
	}
	defer run.Close()
	defer run.EmitStatus()
	if run.Predictions > 0 {
		log.Printf("wrote %d feature rows (%d video windows classified)", run.FeatureRows, run.Predictions)
	} else {
		log.Printf("wrote %d feature rows", run.FeatureRows)
	}
}

// loadLabeled reads the feature CSV and QoS log and joins them into a
// labeled video-row training set.
func loadLabeled(dataPath, qosPath, client string, targetFPS float64) []features.LabeledRow {
	if dataPath == "" || qosPath == "" {
		log.Fatal("-train/-eval need -data (feature CSV) and -qos (ground-truth log)")
	}
	df, err := os.Open(dataPath)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := features.ReadCSV(df)
	df.Close()
	if err != nil {
		log.Fatal(err)
	}
	qdata, err := os.ReadFile(qosPath)
	if err != nil {
		log.Fatal(err)
	}
	logs, err := qos.ParseLog(qdata)
	if err != nil {
		log.Fatal(err)
	}
	var entries []qos.Entry
	if client != "" {
		var ok bool
		entries, ok = logs[client]
		if !ok {
			log.Fatalf("client %q not in %s", client, qosPath)
		}
	} else {
		for _, es := range logs {
			entries = append(entries, es...)
		}
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Time.Before(entries[j].Time) })
	}
	// QoE labels grade received video; other media types train nothing.
	video := rows[:0]
	for _, r := range rows {
		if r.ID.Key.Type == zoom.TypeVideo {
			video = append(video, r)
		}
	}
	labeled := features.Join(video, entries, targetFPS)
	if len(labeled) == 0 {
		log.Fatalf("no labeled rows: %s has %d video rows, %s has %d entries, but no window overlaps", dataPath, len(video), qosPath, len(entries))
	}
	return labeled
}

func runTrain(labeled []features.LabeledRow, modelPath string) {
	if modelPath == "" {
		log.Fatal("-train needs -model (output path)")
	}
	m, err := predict.Train(labeled, predict.TrainOptions{})
	if err != nil {
		log.Fatal(err)
	}
	mf, err := os.Create(modelPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Save(mf); err != nil {
		log.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		log.Fatal(err)
	}
	ev := predict.Evaluate(m, labeled)
	log.Printf("trained on %d rows; training accuracy %.3f (majority baseline %.3f)", ev.N, ev.Accuracy, ev.Baseline)
}

func runEval(labeled []features.LabeledRow, modelPath string) {
	if modelPath == "" {
		log.Fatal("-eval needs -model (a trained model)")
	}
	mf, err := os.Open(modelPath)
	if err != nil {
		log.Fatal(err)
	}
	m, err := predict.Load(mf)
	mf.Close()
	if err != nil {
		log.Fatal(err)
	}
	ev := predict.Evaluate(m, labeled)
	out := struct {
		N         int                                         `json:"n"`
		Accuracy  float64                                     `json:"accuracy"`
		Baseline  float64                                     `json:"baseline"`
		Confusion [features.NumLabels][features.NumLabels]int `json:"confusion"`
		Labels    [features.NumLabels]string                  `json:"labels"`
	}{
		N: ev.N, Accuracy: ev.Accuracy, Baseline: ev.Baseline, Confusion: ev.Confusion,
	}
	for i := 0; i < features.NumLabels; i++ {
		out.Labels[i] = features.Label(i).String()
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(data))
}
