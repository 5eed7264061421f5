package zoomlens

// Allocation-regression tests for the ingest hot path. The engine
// refactor's core promise is O(1) amortized heap allocations per packet:
// the zero-copy readers allocate nothing per record at steady state, and
// the analysis pipeline's per-packet allocations stay bounded by a pinned
// budget. testing.AllocsPerRun makes the promise enforceable — a change
// that re-introduces a per-packet copy or a per-record make fails here,
// not in a benchmark someone has to remember to read.

import (
	"bytes"
	"runtime"
	"testing"

	"zoomlens/internal/pcap"
)

// readerWarmup grows the reader's reused buffer past the largest record
// it will see during measurement, so the measured region is steady state.
const readerWarmup = 256

// TestIngestReadAllocsZero pins the zero-copy record readers at exactly
// zero allocations per record once their reused buffer has grown, and
// their batch reads at zero per batch.
func TestIngestReadAllocsZero(t *testing.T) {
	raw, ngRaw := ingestTrace(t)

	t.Run("pcap", func(t *testing.T) {
		r, err := pcap.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var rec pcap.Record
		for i := 0; i < readerWarmup; i++ {
			if err := r.NextInto(&rec); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if err := r.NextInto(&rec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("classic NextInto: %v allocs/record at steady state, want 0", allocs)
		}
	})

	t.Run("pcapng", func(t *testing.T) {
		ng, err := pcap.OpenStream(bytes.NewReader(ngRaw))
		if err != nil {
			t.Fatal(err)
		}
		var rec pcap.Record
		for i := 0; i < readerWarmup; i++ {
			if err := ng.NextInto(&rec); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if err := ng.NextInto(&rec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("pcapng NextInto: %v allocs/record at steady state, want 0", allocs)
		}
	})

	for _, c := range []struct {
		name string
		raw  []byte
	}{{"pcap-batch", raw}, {"pcapng-batch", ngRaw}} {
		t.Run(c.name, func(t *testing.T) {
			s, err := pcap.OpenStream(bytes.NewReader(c.raw))
			if err != nil {
				t.Fatal(err)
			}
			var recs [pcap.BatchLen]pcap.Record
			read := 0
			next := func() {
				n, err := s.NextBatch(recs[:])
				if err != nil {
					t.Fatal(err)
				}
				read += n
			}
			next()
			allocs := testing.AllocsPerRun(50, next)
			if allocs != 0 {
				t.Errorf("NextBatch: %v allocs/batch at steady state, want 0", allocs)
			}
			if read < 52*pcap.BatchLen/8 {
				t.Errorf("%d records in 52 batches: the runs are too short to measure batches", read)
			}
		})
	}
}

// TestIngestAnalyzeAllocsBounded pins the full read+analyze pipeline's
// amortized allocation budget per packet, sequentially and sharded. The
// analyzer legitimately allocates as it grows per-stream metric series,
// so the bound is not zero — but it must stay a small constant. Budgets
// are a sixth above the measured steady state (0.169 allocs/pkt
// sequential, 0.174 at four workers on this trace, nearly all of it
// frame logs, series and stream records growing, and the same count run
// to run;
// AllocsPerRun runs a GC between passes, so sync.Pool reuse is not
// flattered here); a regression that reintroduces a per-packet frame
// copy, a per-frame record, a per-batch buffer or a heap-allocated
// observation per media packet blows them. The last row is memory
// parity over 20 passes with the batch pool warm: the sharded engine may
// allocate at most 1.25x the sequential engine's bytes per packet (131
// and 143 here; a shard batch pool dropping and regrowing oversized
// buffers once sat at ~1.6x).
func TestIngestAnalyzeAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement over the full trace is slow")
	}
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts and adds allocations; make alloc-check measures the budgets without it")
	}
	raw, _ := ingestTrace(t)
	_, frames, cfg := benchTrace(t)
	n := len(frames)

	for _, tc := range []struct {
		name    string
		workers int
		budget  float64 // allocs per packet
	}{
		{"seq", 1, 0.2},
		{"workers4", 4, 0.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(3, func() {
				if err := ingestAnalyzePass(raw, cfg, tc.workers); err != nil {
					t.Fatal(err)
				}
			})
			perPacket := allocs / float64(n)
			t.Logf("analyze/%s: %.3f allocs/packet over %d packets", tc.name, perPacket, n)
			if perPacket > tc.budget {
				t.Errorf("analyze/%s allocates %.3f per packet, budget %.1f", tc.name, perPacket, tc.budget)
			}
		})
	}

	t.Run("bytes", func(t *testing.T) {
		// One P, as AllocsPerRun measures: sync.Pool caches per P, so this
		// is what makes the pool's hit rate, and the reading, repeatable.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		bytesPerPacket := func(workers int) float64 {
			const passes = 20
			pass := func() {
				if err := ingestAnalyzePass(raw, cfg, workers); err != nil {
					t.Fatal(err)
				}
			}
			pass() // fills the batch pool
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < passes; i++ {
				pass()
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / float64(passes*n)
		}
		seq, w4 := bytesPerPacket(1), bytesPerPacket(4)
		t.Logf("analyze/seq %.0f B/pkt, analyze/workers4 %.0f B/pkt (%.2fx)", seq, w4, w4/seq)
		if w4 > 1.25*seq {
			t.Errorf("analyze/workers4 at %.0f B/pkt vs seq %.0f B/pkt — batch pool retaining oversized buffers", w4, seq)
		}
	})
}

// TestLogHeapPerRecordBounded pins what a finished capture's append-only
// logs cost live: the heap an analyzer holds after Finish, over the
// bytes its frame records (40 B), series samples (16 B) and RTT samples
// (24 B copy-matcher, 40 B TCP) hold. The trace's video streams log some
// 900 frames each, several chunks, so a log that grows by copying itself
// shows here as the slack past its length: copying logs read 1.536 B of
// heap per logged byte on this trace, chunked ones 1.371 (the rest is
// flow, stream and meeting state), and the budget sits between.
func TestLogHeapPerRecordBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state is heap the logs do not hold")
	}
	at, frames, cfg := benchTrace(t)
	// Two collections each side: the second empties the sync.Pool victim
	// caches an earlier test may have filled.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	a := NewAnalyzer(cfg)
	for i := range frames {
		a.Packet(at[i], frames[i])
	}
	a.Finish()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)

	var records, longest int
	logged := 0
	for _, seg := range a.Streams() {
		sm := seg.Metrics
		n := sm.Frames().Len()
		longest = max(longest, n)
		records += n + sm.JitterMS.Samples.Len() + sm.MediaRate.Samples.Len()
		logged += 40*n + 16*(sm.JitterMS.Samples.Len()+sm.MediaRate.Samples.Len())
	}
	records += a.Copies.Samples.Len()
	logged += 24 * a.Copies.Samples.Len()
	for _, tr := range a.TCP {
		records += tr.Samples.Len()
		logged += 40 * tr.Samples.Len()
	}
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	ratio := float64(heap) / float64(logged)
	t.Logf("%d log records, %d B of them, longest frame log %d; heap after Finish %d B: %.3f B per logged byte", records, logged, longest, heap, ratio)
	if longest <= 256 {
		t.Fatalf("longest frame log %d records: the trace fills no second chunk", longest)
	}
	const budget = 1.45
	if ratio > budget {
		t.Errorf("%.3f B of heap per logged byte, budget %.2f", ratio, budget)
	}
	runtime.KeepAlive(a)
}
