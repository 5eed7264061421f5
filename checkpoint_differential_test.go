package zoomlens

// Differential test for the checkpoint/restore boundary: a run that is
// checkpointed mid-trace, thrown away, restored from the checkpoint
// bytes, and run to completion must render a report byte-identical to a
// run that was never interrupted — at one worker and at every sharded
// worker count, from classic pcap and pcapng serializations alike. This
// is the tentpole invariant: if any layer's State/Restore loses or
// reorders state, the reports diverge here.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/pcap"
)

// tracePackets decodes a serialized capture into (timestamp, frame)
// pairs so tests can split replay at exact packet boundaries.
func tracePackets(t *testing.T, serialized []byte) ([]pcap.Record, bool) {
	t.Helper()
	s, err := pcap.OpenStream(bytes.NewReader(serialized))
	if err != nil {
		t.Fatal(err)
	}
	var out []pcap.Record
	var rec pcap.Record
	for {
		err := s.NextInto(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		cp := make([]byte, len(rec.Data))
		copy(cp, rec.Data)
		out = append(out, pcap.Record{Timestamp: rec.Timestamp, Data: cp})
	}
	return out, s.Truncated()
}

func newEngineFor(cfg Config, workers int) Engine {
	if workers > 1 {
		return NewParallelAnalyzer(cfg, workers)
	}
	return NewAnalyzer(cfg)
}

func TestCheckpointRestoreDifferential(t *testing.T) {
	raw, ngRaw := ingestTrace(t)
	_, _, cfg := benchTrace(t)

	differential := func(t *testing.T, recs []pcap.Record, workers int, extraCuts ...int) {
		// The uninterrupted reference run.
		ref := newEngineFor(cfg, workers)
		for _, rec := range recs {
			ref.Packet(rec.Timestamp, rec.Data)
		}
		ref.Finish()
		want := renderReport(ref.Result())
		if !strings.Contains(want, "stream ") {
			t.Fatalf("reference report is streamless:\n%.400s", want)
		}

		// Checkpoint at several cut points, including pathological
		// ones (before any packet, after the last).
		cuts := []int{0, 1, len(recs) / 3, len(recs) / 2, 2 * len(recs) / 3, len(recs) - 1, len(recs)}
		for _, cut := range append(cuts, extraCuts...) {
			first := newEngineFor(cfg, workers)
			for _, rec := range recs[:cut] {
				first.Packet(rec.Timestamp, rec.Data)
			}
			var ckpt bytes.Buffer
			if err := first.Checkpoint(&ckpt); err != nil {
				t.Fatalf("cut=%d: checkpoint: %v", cut, err)
			}

			// A second checkpoint of untouched state must be
			// byte-identical (deterministic encoding).
			var again bytes.Buffer
			if err := first.Checkpoint(&again); err != nil {
				t.Fatalf("cut=%d: re-checkpoint: %v", cut, err)
			}
			if !bytes.Equal(ckpt.Bytes(), again.Bytes()) {
				t.Fatalf("cut=%d: repeated checkpoint of identical state differs", cut)
			}

			resumed, err := RestoreAnalyzer(bytes.NewReader(ckpt.Bytes()), cfg)
			if err != nil {
				t.Fatalf("cut=%d: restore: %v", cut, err)
			}
			for _, rec := range recs[cut:] {
				resumed.Packet(rec.Timestamp, rec.Data)
			}
			resumed.Finish()
			if got := renderReport(resumed.Result()); got != want {
				t.Errorf("cut=%d: restored report diverges from uninterrupted run (lens %d vs %d)",
					cut, len(got), len(want))
			}
		}
	}

	for _, input := range []struct {
		name string
		data []byte
	}{{"pcap", raw}, {"pcapng", ngRaw}} {
		recs, truncated := tracePackets(t, input.data)
		if truncated {
			t.Fatalf("%s trace unexpectedly truncated", input.name)
		}
		if len(recs) < 100 {
			t.Fatalf("%s trace too short for a meaningful split: %d packets", input.name, len(recs))
		}
		// One more cut, between an uplink packet and its downlink copy: the
		// checkpoint carries the uplink's observation in a copy-matcher
		// ring that by mid-trace has doubled several times, and the copy
		// must find it there after the restore.
		copyCut := lastCopyAfter(recs, cfg, len(recs)/2)
		if copyCut < 0 {
			t.Fatalf("%s trace pairs no copy in its second half", input.name)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", input.name, workers), func(t *testing.T) {
				differential(t, recs, workers, copyCut)
			})
		}
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d/aged-out-base", input.name, workers), func(t *testing.T) {
				agedOutBase(t, recs, cfg, workers)
			})
		}
		// Once more on a host whose zone is not UTC. The capture readers
		// stamp UTC, so every clock time a report prints (series seconds,
		// RTT samples, meeting spans) must come back from a checkpoint as
		// UTC too, not as the restoring host's local time.
		t.Run(input.name+"/workers=2/local=UTC-5", func(t *testing.T) {
			defer func(l *time.Location) { time.Local = l }(time.Local)
			time.Local = time.FixedZone("UTC-5", -5*60*60)
			differential(t, recs, 2)
		})
	}
}

// lastCopyAfter returns the index of the last packet past from that
// completed an RTT sample: the downlink copy of an uplink packet seen
// earlier.
func lastCopyAfter(recs []pcap.Record, cfg Config, from int) int {
	a := NewAnalyzer(cfg)
	last := -1
	for i, rec := range recs {
		n := a.Copies.Samples.Len()
		a.Packet(rec.Timestamp, rec.Data)
		if i > from && a.Copies.Samples.Len() > n {
			last = i
		}
	}
	return last
}

// agedOutBase: a delta whose base holds streams the live copy matcher
// has since aged out. Half the trace, a full checkpoint, then only the
// busiest flow carries on — six seconds later and for long enough that
// the matcher's ageing cadence comes round and drops every other stream
// the checkpoint holds — then a delta. The full record rolled forward by
// the delta must be the live engine: the same bytes now, the same report
// at the end.
func agedOutBase(t *testing.T, recs []pcap.Record, cfg Config, workers int) {
	var parser layers.Parser
	var pkt layers.Packet
	flowOf := func(rec pcap.Record) (layers.FiveTuple, bool) {
		if parser.Parse(rec.Data, &pkt) != nil || !pkt.HasUDP {
			return layers.FiveTuple{}, false
		}
		return pkt.FiveTuple()
	}
	counts := make(map[layers.FiveTuple]int)
	var busiest layers.FiveTuple
	for _, rec := range recs {
		if ft, ok := flowOf(rec); ok {
			if counts[ft]++; counts[ft] > counts[busiest] {
				busiest = ft
			}
		}
	}
	half := len(recs) / 2
	trace := append([]pcap.Record(nil), recs[:half]...)
	span := recs[len(recs)-1].Timestamp.Sub(recs[0].Timestamp) + time.Second
	for pass := 0; len(trace) < half+3*4096; pass++ {
		shift := recs[half].Timestamp.Sub(recs[0].Timestamp) + 6*time.Second + time.Duration(pass)*span
		for _, rec := range recs {
			if ft, ok := flowOf(rec); ok && ft == busiest {
				trace = append(trace, pcap.Record{Timestamp: rec.Timestamp.Add(shift), Data: rec.Data})
			}
		}
	}
	mid := half + 2*4096

	feed := func(eng Engine, from, to int) {
		for _, rec := range trace[from:to] {
			eng.Packet(rec.Timestamp, rec.Data)
		}
	}
	ref := newEngineFor(cfg, workers)
	feed(ref, 0, len(trace))
	ref.Finish()
	want := renderReport(ref.Result())

	live := newEngineFor(cfg, workers)
	feed(live, 0, half)
	var full, delta, liveCk, resumedCk bytes.Buffer
	if err := live.Checkpoint(&full); err != nil {
		t.Fatal(err)
	}
	waiting := 0
	if a, ok := live.(*Analyzer); ok {
		waiting = a.Copies.Pending()
	}
	feed(live, half, mid)
	if a, ok := live.(*Analyzer); ok && a.Copies.Pending() >= waiting/2 {
		t.Fatalf("%d observations waited at the checkpoint, %d after the others fell silent: nothing aged out", waiting, a.Copies.Pending())
	}
	if err := live.CheckpointDelta(&delta); err != nil {
		t.Fatal(err)
	}
	resumed, err := RestoreAnalyzer(bytes.NewReader(full.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.ApplyDelta(bytes.NewReader(delta.Bytes())); err != nil {
		t.Fatalf("apply delta: %v", err)
	}
	if err := live.Checkpoint(&liveCk); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Checkpoint(&resumedCk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveCk.Bytes(), resumedCk.Bytes()) {
		t.Fatalf("full + delta encodes differently from the live engine (%d vs %d bytes)", resumedCk.Len(), liveCk.Len())
	}
	feed(resumed, mid, len(trace))
	resumed.Finish()
	if got := renderReport(resumed.Result()); got != want {
		t.Errorf("restored report diverges from the uninterrupted run (lens %d vs %d)", len(got), len(want))
	}
}

// TestCheckpointRestoreWorkerCount pins the restore contract: the
// worker count is engine state, so a checkpoint taken at N workers
// restores to N workers regardless of what the restoring deployment
// would otherwise configure.
func TestCheckpointRestoreWorkerCount(t *testing.T) {
	raw, _ := ingestTrace(t)
	_, _, cfg := benchTrace(t)
	recs, _ := tracePackets(t, raw)

	eng := NewParallelAnalyzer(cfg, 4)
	for _, rec := range recs[:len(recs)/2] {
		eng.Packet(rec.Timestamp, rec.Data)
	}
	var ckpt bytes.Buffer
	if err := eng.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreAnalyzer(bytes.NewReader(ckpt.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pa, ok := restored.(*ParallelAnalyzer)
	if !ok {
		t.Fatalf("restored engine is %T, want *ParallelAnalyzer", restored)
	}
	if pa.Workers() != 4 {
		t.Fatalf("restored worker count = %d, want 4", pa.Workers())
	}
	pa.Finish()
}

// TestFinishIdempotent is the regression test for the double-Finish
// double-flush: ReadPCAP finishes internally, and callers that follow
// it with their own Finish (every CLI does, via the engine driver) must
// get the same report as a single Finish.
func TestFinishIdempotent(t *testing.T) {
	raw, _ := ingestTrace(t)
	_, _, cfg := benchTrace(t)

	once := NewAnalyzer(cfg)
	if err := once.ReadPCAP(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	want := renderReport(once)
	if !strings.Contains(want, "stream ") {
		t.Fatalf("report is streamless:\n%.400s", want)
	}

	twice := NewAnalyzer(cfg)
	if err := twice.ReadPCAP(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	twice.Finish()
	twice.Finish()
	if got := renderReport(twice); got != want {
		t.Error("repeated Finish changed the report")
	}

	// Same contract through the parallel engine.
	preps := NewParallelAnalyzer(cfg, 4)
	if err := preps.ReadPCAP(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	preps.Finish()
	preps.Finish()
	if got := renderReport(preps.Result()); got != want {
		t.Error("parallel repeated Finish diverges from sequential single Finish")
	}
}

// TestRotateWindows checks windowed rotation: rotating mid-trace yields
// two window reports whose packet totals partition the trace, rotation
// is equivalent across worker counts, and the post-rotation engine
// starts an empty window.
func TestRotateWindows(t *testing.T) {
	raw, _ := ingestTrace(t)
	_, _, cfg := benchTrace(t)
	recs, _ := tracePackets(t, raw)
	cut := len(recs) / 2

	type windows struct{ first, second string }
	run := func(workers int) windows {
		eng := newEngineFor(cfg, workers)
		for _, rec := range recs[:cut] {
			eng.Packet(rec.Timestamp, rec.Data)
		}
		win := eng.Rotate(recs[cut].Timestamp)
		first := renderReport(win)
		for _, rec := range recs[cut:] {
			eng.Packet(rec.Timestamp, rec.Data)
		}
		eng.Finish()
		return windows{first: first, second: renderReport(eng.Result())}
	}

	want := run(1)
	if !strings.Contains(want.first, "stream ") || !strings.Contains(want.second, "stream ") {
		t.Fatalf("window reports are streamless")
	}
	for _, workers := range []int{2, 4} {
		if got := run(workers); got != want {
			t.Errorf("workers=%d rotated windows diverge from sequential", workers)
		}
	}

	// The two windows partition the packet stream.
	eng := NewAnalyzer(cfg)
	for _, rec := range recs[:cut] {
		eng.Packet(rec.Timestamp, rec.Data)
	}
	win := eng.Rotate(recs[cut].Timestamp)
	if got := win.Summary().Packets; got != uint64(cut) {
		t.Errorf("first window packets = %d, want %d", got, cut)
	}
	if got := eng.Summary().Packets; got != 0 {
		t.Errorf("post-rotation engine reports %d packets, want 0", got)
	}
	for _, rec := range recs[cut:] {
		eng.Packet(rec.Timestamp, rec.Data)
	}
	eng.Finish()
	if got := eng.Summary().Packets; got != uint64(len(recs)-cut) {
		t.Errorf("second window packets = %d, want %d", got, len(recs)-cut)
	}
}
