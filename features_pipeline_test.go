package zoomlens

// Differential tests for the streaming feature pipeline: the per-stream
// feature rows must be byte-identical — as versioned CSV — no matter
// which tier produced them (sequential engine, sharded parallel engine
// at any worker count, or a split → worker fleet → aggregator cluster
// run), no matter the capture container (classic pcap or pcapng), no
// matter the drain cadence, and across a mid-trace checkpoint/restore.
// A recorded observation sequence replayed through a windower of its
// own is the same pipeline, so it too must reproduce the streaming rows
// exactly.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"zoomlens/internal/cluster"
	"zoomlens/internal/core"
	"zoomlens/internal/features"
	"zoomlens/internal/pcap"
)

// featureCfg is the shared trace config with the feature layer enabled
// on a sub-second grid (the 30 s benchmark trace then spans ~60
// windows, enough closes to exercise eviction and partial finals).
func featureCfg(tb testing.TB) Config {
	_, _, cfg := benchTrace(tb)
	cfg.FeatureWindow = 500 * time.Millisecond
	return cfg
}

func featureCSV(tb testing.TB, rows []features.Row) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := features.WriteCSV(&buf, rows); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

// clusterFeatureRows models a full cluster run (splitter → pre-filtered
// workers exporting observation logs and checkpoints → aggregator
// replay) and returns the merged engine's feature rows.
func clusterFeatureRows(t *testing.T, cfg Config, recs []pcap.Record, workers int) []features.Row {
	t.Helper()
	sp := cluster.NewSplitter(cfg, workers)
	streams := make([]*bytes.Buffer, workers)
	for i := range streams {
		streams[i] = &bytes.Buffer{}
		if err := sp.Attach(i, streams[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range recs {
		if err := sp.Packet(rec.Timestamp, rec.Data); err != nil {
			t.Fatal(err)
		}
	}
	head := sp.Manifest(false).Head()

	workerCfg := cfg
	workerCfg.PreFiltered = true
	parts := make([]*core.Analyzer, workers)
	readers := make([]*cluster.ObsReader, workers)
	for i := 0; i < workers; i++ {
		var obsLog bytes.Buffer
		a := NewAnalyzer(workerCfg)
		ow := cluster.NewObsWriter(&obsLog)
		if err := a.SetClusterSink(ow.Add); err != nil {
			t.Fatal(err)
		}
		feedWorkerStream(t, a, streams[i].Bytes())
		if err := ow.Flush(); err != nil {
			t.Fatal(err)
		}
		var state bytes.Buffer
		if err := a.Checkpoint(&state); err != nil {
			t.Fatal(err)
		}
		eng, err := RestoreAnalyzer(bytes.NewReader(state.Bytes()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = eng.(*core.Analyzer)
		r, err := cluster.NewObsReader(obsLog.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		readers[i] = r
	}

	next, errf := cluster.MergeObs(readers)
	merged := core.MergeCluster(cfg, parts, head, next)
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	merged.Finish()
	return merged.DrainFeatures()
}

// TestFeaturesPipelineDifferential pins the headline invariant: every
// tier emits byte-identical feature CSV from both capture containers,
// and drain cadence never changes the rows.
func TestFeaturesPipelineDifferential(t *testing.T) {
	raw, ngRaw := ingestTrace(t)
	cfg := featureCfg(t)

	for _, input := range []struct {
		name string
		data []byte
	}{{"pcap", raw}, {"pcapng", ngRaw}} {
		recs, truncated := tracePackets(t, input.data)
		if truncated {
			t.Fatalf("%s trace unexpectedly truncated", input.name)
		}

		ref := NewAnalyzer(cfg)
		for _, rec := range recs {
			ref.Packet(rec.Timestamp, rec.Data)
		}
		ref.Finish()
		refRows := ref.DrainFeatures()
		if len(refRows) < 20 {
			t.Fatalf("%s reference run emitted only %d feature rows", input.name, len(refRows))
		}
		want := featureCSV(t, refRows)

		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", input.name, workers), func(t *testing.T) {
				pa := NewParallelAnalyzer(cfg, workers)
				var rows []features.Row
				for pi, rec := range recs {
					pa.Packet(rec.Timestamp, rec.Data)
					// Mid-run drains at an arbitrary cadence must never
					// change row content or order.
					if pi%1000 == 999 {
						rows = append(rows, pa.DrainFeatures()...)
					}
				}
				pa.Finish()
				rows = append(rows, pa.DrainFeatures()...)
				if got := featureCSV(t, rows); got != want {
					t.Errorf("parallel rows diverge from sequential (lens %d vs %d)\nfirst diff: %s",
						len(got), len(want), firstDiffLine(want, got))
				}
			})
		}

		t.Run(input.name+"/cluster=2", func(t *testing.T) {
			rows := clusterFeatureRows(t, cfg, recs, 2)
			if got := featureCSV(t, rows); got != want {
				t.Errorf("cluster rows diverge from sequential (lens %d vs %d)\nfirst diff: %s",
					len(got), len(want), firstDiffLine(want, got))
			}
		})
	}
}

// TestFeaturesStreamingVsBatch replays the engine's own observation
// stream (recorded through the cluster sink — the same header-free view
// the windower consumes) through a fresh windower in one batch and
// requires the batch rows to reproduce the streaming rows exactly.
func TestFeaturesStreamingVsBatch(t *testing.T) {
	raw, _ := ingestTrace(t)
	cfg := featureCfg(t)
	recs, _ := tracePackets(t, raw)

	ref := NewAnalyzer(cfg)
	for _, rec := range recs {
		ref.Packet(rec.Timestamp, rec.Data)
	}
	ref.Finish()
	want := featureCSV(t, ref.DrainFeatures())

	batch, observed := features.NewWindower(cfg.FeatureWindow), 0
	tap := NewAnalyzer(cfg)
	if err := tap.SetClusterSink(func(o core.ClusterObs) {
		observed++
		batch.Observe(features.Obs{
			At: o.At, Flow: o.Flow, Key: o.Key,
			WireLen: o.WireLen, PayloadLen: o.PayloadLen,
			PT: o.PT, RTPSeq: o.RTPSeq, RTPTS: o.RTPTS,
		})
	}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		tap.Packet(rec.Timestamp, rec.Data)
	}
	tap.Finish()
	if observed == 0 {
		t.Fatal("observation tap saw nothing")
	}
	batch.FinishFlush()

	got := featureCSV(t, batch.Drain())
	if got != want {
		t.Errorf("batch rows diverge from streaming (lens %d vs %d)\nfirst diff: %s",
			len(got), len(want), firstDiffLine(want, got))
	}
}

// TestFeaturesCheckpointResume interrupts a run mid-trace — draining
// the rows emitted so far, checkpointing, and restoring a successor —
// and requires drained-before-checkpoint plus drained-after-resume to
// equal an uninterrupted run exactly, for both engine kinds.
func TestFeaturesCheckpointResume(t *testing.T) {
	raw, _ := ingestTrace(t)
	cfg := featureCfg(t)
	recs, _ := tracePackets(t, raw)

	ref := NewAnalyzer(cfg)
	for _, rec := range recs {
		ref.Packet(rec.Timestamp, rec.Data)
	}
	ref.Finish()
	want := featureCSV(t, ref.DrainFeatures())

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var eng Engine
			if workers > 1 {
				eng = NewParallelAnalyzer(cfg, workers)
			} else {
				eng = NewAnalyzer(cfg)
			}
			cut := len(recs) / 2
			for _, rec := range recs[:cut] {
				eng.Packet(rec.Timestamp, rec.Data)
			}
			rows := eng.DrainFeatures()
			var ck bytes.Buffer
			if err := eng.Checkpoint(&ck); err != nil {
				t.Fatal(err)
			}
			successor, err := RestoreAnalyzer(bytes.NewReader(ck.Bytes()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs[cut:] {
				successor.Packet(rec.Timestamp, rec.Data)
			}
			successor.Finish()
			rows = append(rows, successor.DrainFeatures()...)
			if got := featureCSV(t, rows); got != want {
				t.Errorf("resumed rows diverge from uninterrupted run (lens %d vs %d)\nfirst diff: %s",
					len(got), len(want), firstDiffLine(want, got))
			}
		})
	}
}
