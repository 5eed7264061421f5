package engine

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zoomlens/internal/metrics"
	"zoomlens/internal/pcap"
	"zoomlens/internal/trace"
)

// TestBatchedRunMatchesRecordAtATime holds Run's batched read loop to
// RunFrom fed one record at a time, on a capture where every schedule
// fires inside batches: a batch holds 256 records (128 ms of this
// trace), and rotation, snapshots, full and delta checkpoints and the
// feature drain fire every 1.3 s, 0.7 s, 1.7 s, 0.23 s and 5 s. Each must
// land on the same record as when every record is a batch of its own,
// so everything the run writes is byte-identical: the report, the status
// line, the window reports, the snapshot lines, the feature rows and
// every record of the checkpoint chain.
func TestBatchedRunMatchesRecordAtATime(t *testing.T) {
	cfg := trace.DefaultStreamConfig()
	cfg.Streams, cfg.Packets, cfg.Interval = 200, 24000, 500*time.Microsecond
	gen, err := trace.NewStreamGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	input := filepath.Join(t.TempDir(), "in.pcap")
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.WriterOptions{Nanosecond: true})
	if err != nil {
		t.Fatal(err)
	}
	for {
		var rec pcap.Record
		if gen.Next(&rec) != nil {
			break
		}
		if err := w.WriteRecord(rec.Timestamp, rec.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(input, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	nets := []netip.Prefix{cfg.ZoomNet}

	// run writes everything into a fresh directory and returns it.
	run := func(workers int, batched bool) string {
		t.Helper()
		dir := t.TempDir()
		f := &Flags{
			Obs:                &ObsFlags{SnapshotInterval: 700 * time.Millisecond, SnapshotOut: filepath.Join(dir, "snap.jsonl")},
			Workers:            workers,
			FlowTTL:            400 * time.Millisecond,
			Checkpoint:         filepath.Join(dir, "ck"),
			CheckpointInterval: 1700 * time.Millisecond,
			CheckpointDelta:    230 * time.Millisecond,
			CheckpointKeep:     1000,
			Rotate:             1300 * time.Millisecond,
			RotateOut:          filepath.Join(dir, "win"),
			Features:           filepath.Join(dir, "features.csv"),
		}
		var r *Run
		if batched {
			f.Input = input
			r, err = f.Run(nets)
		} else {
			s, oerr := Open(input)
			if oerr != nil {
				t.Fatal(oerr)
			}
			defer s.Close()
			r, err = f.RunFrom(nets, s.NextInto, s.Truncated)
		}
		if err != nil {
			t.Fatal(err)
		}
		if r.Rotations < 5 || r.Checkpointer.Fulls < 5 || r.Checkpointer.Deltas < 20 || r.FeatureRows == 0 {
			t.Fatalf("workers=%d: %d rotations, %d fulls, %d deltas, %d feature rows: the schedules barely fired",
				workers, r.Rotations, r.Checkpointer.Fulls, r.Checkpointer.Deltas, r.FeatureRows)
		}
		r.statusPath = filepath.Join(dir, "status.json")
		r.EmitStatus()
		r.Close()
		report, err := json.Marshal(struct {
			Summary any
			Streams []any
		}{r.Analyzer.Summary(), streamRows(r)})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "report.json"), report, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	for _, workers := range []int{1, 2} {
		batched, single := run(workers, true), run(workers, false)
		checkWindowsOpenOnCrossingRecord(t, batched)
		got, want := dirFiles(t, batched), dirFiles(t, single)
		if len(got) != len(want) {
			t.Errorf("workers=%d: batched run wrote %d files, record-at-a-time %d", workers, len(got), len(want))
		}
		for name, data := range want {
			if !bytes.Equal(got[name], data) {
				t.Errorf("workers=%d: %s differs between the batched run and the record-at-a-time one", workers, name)
			}
		}
	}
}

// checkWindowsOpenOnCrossingRecord: rotation runs before the record
// that crosses the window boundary, so that record opens the next window
// (its timestamp is the window's End) and every window's capture span
// ends short of End.
func checkWindowsOpenOnCrossingRecord(t *testing.T, dir string) {
	t.Helper()
	wins, err := filepath.Glob(filepath.Join(dir, "win-*.json"))
	if err != nil || len(wins) == 0 {
		t.Fatalf("no window reports in %s (%v)", dir, err)
	}
	for _, name := range wins {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		var win windowReport
		if err := json.Unmarshal(data, &win); err != nil {
			t.Fatal(err)
		}
		if span := win.End.Sub(win.Start); win.Summary.Duration >= span {
			t.Errorf("%s covers %v of its %v: the record at End was ingested before the rotation", filepath.Base(name), win.Summary.Duration, span)
		}
	}
}

// streamRows is the per-stream part of a report: every stream segment's
// identity, loss figures and frame log.
func streamRows(r *Run) []any {
	var rows []any
	for _, seg := range r.Analyzer.Streams() {
		log := seg.Metrics.Frames()
		frames := make([]metrics.FrameRecord, log.Len())
		for i := range frames {
			frames[i] = *log.At(i)
		}
		rows = append(rows, seg.ID, seg.Metrics.LossStats(), frames)
	}
	return rows
}

// dirFiles reads every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}
