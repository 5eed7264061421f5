package zoomlens

// Differential test for cluster-mode scale-out: splitting a capture
// across N worker processes (modeled in-process: splitter → pcapng
// streams → sequential pre-filtered engines → observation logs →
// checkpointed state) and aggregating the parts must render a report
// byte-identical to one engine having read the whole capture — at every
// fan-out width, from classic pcap and pcapng inputs alike, and across
// a mid-trace checkpoint-drain worker migration.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"zoomlens/internal/capture"
	"zoomlens/internal/cluster"
	"zoomlens/internal/core"
	"zoomlens/internal/faultpcap"
	"zoomlens/internal/pcap"
)

// feedWorkerStream replays one splitter output stream into a worker
// engine, carrying the splitter's global sequence numbers.
func feedWorkerStream(t *testing.T, a *Analyzer, stream []byte) {
	t.Helper()
	if len(stream) == 0 {
		return
	}
	s, err := pcap.OpenStream(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	var recs [pcap.BatchLen]pcap.Record
	for {
		n, err := s.NextBatch(recs[:])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs[:n] {
			if !rec.HasPacketID {
				t.Fatal("splitter stream record lacks epb_packetid")
			}
		}
		a.IngestSeq(recs[:n])
	}
}

// clusterRun models one full cluster run over recs at the given fan-out
// width and returns the merged report.
func clusterRun(t *testing.T, cfg Config, recs []pcap.Record, workers, migrateAt int) string {
	t.Helper()
	return renderReport(clusterMerge(t, cfg, recs, workers, migrateAt))
}

// clusterMerge is the cluster run behind clusterRun, returning the
// merged, finished analyzer. migrateAt >= 0 drains and migrates every
// worker at that input-packet index: the splitter rotates all streams,
// each worker checkpoints, is discarded, and a restored successor
// consumes the post-cut stream, appending to the same observation log.
// Every run must conserve packets across the tiers.
func clusterMerge(t *testing.T, cfg Config, recs []pcap.Record, workers, migrateAt int) *Analyzer {
	t.Helper()

	// Splitter tier.
	sp := cluster.NewSplitter(cfg, workers)
	first := make([]*bytes.Buffer, workers)
	second := make([]*bytes.Buffer, workers)
	for i := range first {
		first[i] = &bytes.Buffer{}
		if err := sp.Attach(i, first[i]); err != nil {
			t.Fatal(err)
		}
	}
	for pi, rec := range recs {
		if pi == migrateAt {
			for i := range second {
				second[i] = &bytes.Buffer{}
				if err := sp.Attach(i, second[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sp.Packet(rec.Timestamp, rec.Data); err != nil {
			t.Fatal(err)
		}
	}
	head := sp.Manifest(false).Head()

	// Worker tier: sequential pre-filtered engines, observations
	// diverted to per-worker logs, state exported pre-Finish.
	workerCfg := cfg
	workerCfg.PreFiltered = true
	parts := make([]*core.Analyzer, workers)
	obsLogs := make([]*bytes.Buffer, workers)
	for i := 0; i < workers; i++ {
		obsLogs[i] = &bytes.Buffer{}
		a := NewAnalyzer(workerCfg)
		ow := cluster.NewObsWriter(obsLogs[i])
		if err := a.SetClusterSink(ow.Add); err != nil {
			t.Fatal(err)
		}
		feedWorkerStream(t, a, first[i].Bytes())
		if migrateAt >= 0 {
			// Drain: flush the log, checkpoint the worker, discard it,
			// restore the successor, and resume on the rotated stream
			// with a fresh log segment appended to the same file.
			if err := ow.Flush(); err != nil {
				t.Fatal(err)
			}
			var ck bytes.Buffer
			if err := a.Checkpoint(&ck); err != nil {
				t.Fatal(err)
			}
			eng, err := RestoreAnalyzer(bytes.NewReader(ck.Bytes()), workerCfg)
			if err != nil {
				t.Fatal(err)
			}
			a = eng.(*Analyzer)
			ow = cluster.NewObsWriter(obsLogs[i])
			if err := a.SetClusterSink(ow.Add); err != nil {
				t.Fatal(err)
			}
			feedWorkerStream(t, a, second[i].Bytes())
		}
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
		part, ok := eng.(*Analyzer)
		if !ok {
			t.Fatalf("worker %d state restored as %T, want *Analyzer", i, eng)
		}
		parts[i] = part
	}

	// Aggregator tier.
	readers := make([]*cluster.ObsReader, workers)
	for i := range readers {
		r, err := cluster.NewObsReader(obsLogs[i].Bytes())
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
	checkClusterConservation(t, merged)
	return merged
}

// checkClusterConservation asserts packet conservation across the
// cluster's tiers (core's AccountingGap): every frame the splitter read
// ends in exactly one terminal bucket, either of the merged head (the
// splitter's, plus what a worker's own front end turned away) or of a
// worker shard (the merge sums them, and the workers' checkpoints carry
// every one).
func checkClusterConservation(t *testing.T, merged *Analyzer) {
	t.Helper()
	if gap, _ := merged.AccountingGap(); gap != 0 {
		t.Errorf("splitter read %d frames, terminal buckets off by %d (head %+v)", merged.Packets, gap, merged.ClusterHead)
	}
}

// headAccounting is everything the front end records about a capture.
// All three tiers run the same front end, so it must not depend on what
// runs behind it.
type headAccounting struct {
	Head   core.ClusterHead
	Filter capture.FilterStats
}

// checkHeadAccounting flips bits in a quarter of recs — some frames
// become undecodable, some change sides of the capture filter — and
// demands identical head accounting (packets, bytes, L2–L4 undecodable,
// filter drops, panics, first/last timestamp, and the filter's own
// decision counters) from the sequential engine, the parallel engine at
// 1, 2 and 4 workers, and a 2-way splitter. It also pins that one worker
// means an inline shard: no goroutine is started.
func checkHeadAccounting(t *testing.T, cfg Config, recs []pcap.Record) {
	t.Helper()
	i := 0
	fr := faultpcap.NewReader(func() (pcap.Record, error) {
		if i == len(recs) {
			return pcap.Record{}, io.EOF
		}
		i++
		return pcap.Record{Timestamp: recs[i-1].Timestamp, Data: bytes.Clone(recs[i-1].Data)}, nil
	}, faultpcap.Options{Fault: faultpcap.BitFlip, Seed: 3, Rate: 0.25})
	var mangled []pcap.Record
	for rec, err := fr.Next(); err == nil; rec, err = fr.Next() {
		mangled = append(mangled, rec)
	}

	seq := NewAnalyzer(cfg)
	for _, rec := range mangled {
		seq.Packet(rec.Timestamp, rec.Data)
	}
	seq.Finish()
	want := headAccounting{seq.ClusterHead, seq.FilterStats()}
	if want.Head.Undecodable == 0 || want.Head.DroppedByFilter == 0 || want.Filter.ZoomP2P+want.Filter.ZoomSTUN == 0 {
		t.Fatalf("mangled trace does not exercise the front end: %+v", want)
	}

	for _, workers := range []int{1, 2, 4} {
		before := runtime.NumGoroutine()
		pa := NewParallelAnalyzer(cfg, workers)
		if started := runtime.NumGoroutine() - before; workers == 1 && started != 0 {
			t.Errorf("workers=1 started %d goroutine(s), want an inline shard", started)
		}
		for _, rec := range mangled {
			pa.Packet(rec.Timestamp, rec.Data)
		}
		pa.Finish()
		if got := (headAccounting{pa.ClusterHead, pa.FilterStats()}); got != want {
			t.Errorf("workers=%d head accounting diverges from sequential:\n got %+v\nwant %+v", workers, got, want)
		}
	}

	sp := cluster.NewSplitter(cfg, 2)
	for w := 0; w < sp.Workers(); w++ {
		if err := sp.Attach(w, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range mangled {
		if err := sp.Packet(rec.Timestamp, rec.Data); err != nil {
			t.Fatal(err)
		}
	}
	if got := (headAccounting{sp.Head(false), sp.FilterStats()}); got != want {
		t.Errorf("splitter head accounting diverges from sequential:\n got %+v\nwant %+v", got, want)
	}
}

func TestClusterDifferential(t *testing.T) {
	raw, ngRaw := ingestTrace(t)
	_, _, cfg := benchTrace(t)

	for _, input := range []struct {
		name string
		data []byte
	}{{"pcap", raw}, {"pcapng", ngRaw}} {
		recs, truncated := tracePackets(t, input.data)
		if truncated {
			t.Fatalf("%s trace unexpectedly truncated", input.name)
		}
		if len(recs) < 100 {
			t.Fatalf("%s trace too short: %d packets", input.name, len(recs))
		}

		// Single-engine reference.
		ref := NewAnalyzer(cfg)
		for _, rec := range recs {
			ref.Packet(rec.Timestamp, rec.Data)
		}
		ref.Finish()
		want := renderReport(ref)
		if !strings.Contains(want, "stream ") {
			t.Fatalf("reference report is streamless:\n%.400s", want)
		}

		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", input.name, workers), func(t *testing.T) {
				if got := clusterRun(t, cfg, recs, workers, -1); got != want {
					t.Errorf("cluster report diverges from single engine (lens %d vs %d)\nfirst diff: %s",
						len(got), len(want), firstDiffLine(want, got))
				}
			})
			t.Run(fmt.Sprintf("%s/workers=%d/migrate", input.name, workers), func(t *testing.T) {
				if got := clusterRun(t, cfg, recs, workers, len(recs)/2); got != want {
					t.Errorf("post-migration cluster report diverges (lens %d vs %d)\nfirst diff: %s",
						len(got), len(want), firstDiffLine(want, got))
				}
			})
		}
	}
}

// hostileTimeCapture is the first 200 frames of the bench trace the
// capture filter keeps, the 101st stamped 3000-01-01 — past the
// nanosecond range of the pcapng streams the splitter writes — as records
// and as a microsecond pcapng capture, which can carry that instant.
func hostileTimeCapture(t *testing.T, cfg Config) ([]pcap.Record, []byte) {
	t.Helper()
	at, frames, _ := benchTrace(t)
	router := core.NewRouter(cfg, 1)
	var recs []pcap.Record
	for i := 0; i < len(frames) && len(recs) < 200; i++ {
		if _, keep := router.Route(at[i], frames[i]); keep {
			recs = append(recs, pcap.Record{Timestamp: at[i], Data: frames[i]})
		}
	}
	if len(recs) < 200 {
		t.Fatalf("the trace has %d kept frames, want 200", len(recs))
	}
	recs[100].Timestamp = time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)
	// NGWriter counts nanoseconds and refuses the year 3000, so it is
	// handed each record's microsecond count and the interface's
	// if_tsresol option is patched from 9 (nanoseconds) to 6.
	var buf bytes.Buffer
	ng, err := pcap.NewNGWriter(&buf, uint16(pcap.LinkTypeEthernet))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := ng.WriteRecord(time.Unix(0, r.Timestamp.UnixMicro()), r.Data); err != nil {
			t.Fatal(err)
		}
	}
	i := bytes.Index(buf.Bytes(), []byte{9, 0, 1, 0, 9, 0, 0, 0})
	if i < 0 || i > 64 {
		t.Fatal("if_tsresol option not found in the interface description")
	}
	buf.Bytes()[i+4] = 6
	return recs, buf.Bytes()
}

// TestClusterSplitDropsUnwritableTime: a kept frame whose timestamp the
// worker streams cannot hold is dropped by the splitter and counted in
// the manifest, the split goes on with the next frame, and the merge still
// accounts for every frame the splitter read (clusterMerge checks
// conservation).
func TestClusterSplitDropsUnwritableTime(t *testing.T) {
	_, _, cfg := benchTrace(t)
	recs, _ := hostileTimeCapture(t, cfg)
	sp := cluster.NewSplitter(cfg, 2)
	for i := 0; i < 2; i++ {
		if err := sp.Attach(i, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range recs {
		if err := sp.Packet(r.Timestamp, r.Data); err != nil {
			t.Fatalf("the split stopped: %v", err)
		}
	}
	m := sp.Manifest(false)
	if kept := m.KeptPerWorker[0] + m.KeptPerWorker[1]; m.DroppedTimeRange != 1 || kept != 199 || m.Packets != 200 {
		t.Errorf("manifest: %d read, %d forwarded, %d dropped; want 200, 199, 1", m.Packets, kept, m.DroppedTimeRange)
	}
	if merged := clusterMerge(t, cfg, recs, 2, -1); merged.Packets != 200 {
		t.Errorf("the merge counts %d frames, want 200", merged.Packets)
	}
}

// TestClusterObsLogRoundTrip pins the observation-log format: records
// survive a write → append-second-segment → read cycle in order, and
// the k-way merge interleaves logs by sequence number.
func TestClusterObsLogRoundTrip(t *testing.T) {
	mk := func(seqs ...uint64) core.ClusterObs {
		return core.ClusterObs{Seq: seqs[0], PT: uint8(seqs[0] % 128), RTPSeq: uint16(seqs[0]), RTPTS: uint32(seqs[0] * 90)}
	}
	var buf bytes.Buffer
	w := cluster.NewObsWriter(&buf)
	w.Add(mk(1))
	w.Add(mk(4))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// A migrated worker's second life: new segment, same buffer.
	w2 := cluster.NewObsWriter(&buf)
	w2.Add(mk(7))
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := cluster.NewObsReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for {
		o, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, o.Seq)
	}
	if fmt.Sprint(got) != "[1 4 7]" {
		t.Fatalf("round-trip seqs = %v, want [1 4 7]", got)
	}

	// K-way merge across two logs.
	var b2 bytes.Buffer
	w3 := cluster.NewObsWriter(&b2)
	w3.Add(mk(2))
	w3.Add(mk(3))
	w3.Add(mk(9))
	if err := w3.Flush(); err != nil {
		t.Fatal(err)
	}
	ra, _ := cluster.NewObsReader(buf.Bytes())
	rb, _ := cluster.NewObsReader(b2.Bytes())
	next, errf := cluster.MergeObs([]*cluster.ObsReader{ra, rb})
	got = got[:0]
	for {
		o, ok := next()
		if !ok {
			break
		}
		got = append(got, o.Seq)
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3 4 7 9]" {
		t.Fatalf("merged seqs = %v, want [1 2 3 4 7 9]", got)
	}
}
