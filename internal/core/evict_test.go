package core

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"

	"zoomlens/internal/pcap"
	"zoomlens/internal/trace"
)

// TestEvictionClockDifferential holds idle eviction to one clock, the
// front end's: on a churn-shaped capture under FlowTTL, with a full+delta
// checkpoint chain and two rotations on churn_state's proportions (TTL a
// 25th of the span, fulls, deltas and windows spread over it), every
// window report and the final report — summary, meetings and every stream
// segment — are byte-identical at 1, 2 and 4 workers, and so are those of
// an engine restored mid-trace from the workers-2 run's chain. A clock per
// shard would sweep at points that depend on the shard count: segments,
// eviction counts and window contents would differ. Run it under -race:
// the eviction stamps ride the shard queues.
func TestEvictionClockDifferential(t *testing.T) {
	gcfg := trace.DefaultStreamConfig()
	gcfg.Streams, gcfg.Packets, gcfg.ChurnEvery = 300, 30_000, 32
	gen, err := trace.NewStreamGen(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	var recs []pcap.Record
	var rec pcap.Record
	for gen.Next(&rec) == nil {
		cp := rec
		cp.Data = bytes.Clone(rec.Data)
		recs = append(recs, cp)
	}
	n := len(recs)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{gcfg.ZoomNet},
		CampusNetworks: []netip.Prefix{gcfg.CampusNet},
		FlowTTL:        recs[n-1].Timestamp.Sub(recs[0].Timestamp) / 25,
	}

	// run feeds frames from+1..n to eng on the schedule and returns each
	// window's report and the final one, how many streams each evicted,
	// and the chain as it stood at the end: the last full and its deltas.
	run := func(eng Engine, from int) (reports [][]byte, evicted []uint64, chain [][]byte) {
		emit := func(a *Analyzer) {
			reports = append(reports, reportBytes(t, a))
			evicted = append(evicted, a.Summary().EvictedStreams)
		}
		for k := from + 1; k <= n; k++ {
			r := &recs[k-1]
			eng.Packet(r.Timestamp, r.Data)
			switch k {
			case n / 5, n / 2:
				chain = [][]byte{bytes.Clone(checkpointBytes(t, eng))}
			case n * 3 / 10, n * 3 / 5, n * 7 / 10:
				var d bytes.Buffer
				if err := eng.CheckpointDelta(&d); err != nil {
					t.Fatalf("delta at frame %d: %v", k, err)
				}
				chain = append(chain, d.Bytes())
			case n * 2 / 5, n * 4 / 5:
				emit(eng.Rotate(r.Timestamp))
			}
		}
		eng.Finish()
		emit(eng.Result())
		return reports, evicted, chain
	}

	want, evicted, _ := run(NewAnalyzer(cfg), 0)
	for i, ev := range evicted {
		if ev == 0 {
			t.Fatalf("report %d evicted no stream: the capture does not exercise the TTL", i)
		}
	}
	compare := func(name string, got, want [][]byte) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d reports, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: report %d of %d differs from the sequential engine's (%d vs %d bytes)", name, i+1, len(want), len(got[i]), len(want[i]))
			}
		}
	}
	var chain [][]byte
	for _, workers := range []int{2, 4} {
		got, _, ck := run(NewParallelAnalyzer(cfg, workers), 0)
		compare(fmt.Sprintf("workers=%d", workers), got, want)
		if workers == 2 {
			chain = ck
		}
	}

	// Restored from the workers-2 chain (the full at n/2 and its deltas at
	// 3n/5 and 7n/10), the rest of the run matches: the second window and
	// the final report.
	eng, err := RestoreAnalyzer(bytes.NewReader(chain[0]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range chain[1:] {
		if err := eng.ApplyDelta(bytes.NewReader(d)); err != nil {
			Discard(eng)
			t.Fatal(err)
		}
	}
	if eng.(*ParallelAnalyzer).Workers() != 2 {
		t.Fatalf("the chain restored to %d workers, want 2", eng.(*ParallelAnalyzer).Workers())
	}
	got, _, _ := run(eng, n*7/10)
	compare("restored at workers=2", got, want[1:])
}
