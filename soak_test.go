package zoomlens

// Leak-gated soak harness for continuous operation: a streamed (never
// materialized) synthetic workload with steady stream churn runs
// through the production driver — rotation, full + delta checkpoint
// chain, idle eviction, finished-archive cap all on — on a compressed
// trace clock. The structural gates are the continuous-operation claims:
// the checkpoint chain, rotation and idle eviction all active, goroutines
// flat, and no memory retained after the run.
//
// TestSoak runs a laptop-scale shape under plain `go test`.
// BenchmarkSoak (`make soak-smoke`) holds 100k streams live and adds what
// only that shape can say: the resident-set peak and the cost of an
// incremental checkpoint at a production stream count.

import (
	"bufio"
	"bytes"
	"io"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"zoomlens/internal/engine"
	"zoomlens/internal/layers"
	"zoomlens/internal/pcap"
	"zoomlens/internal/sim"
	"zoomlens/internal/trace"
)

// readRSSKB returns the process resident set in kB from /proc, or 0
// where /proc is unavailable (the heap gate below does not depend on
// it).
func readRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				n, _ := strconv.ParseInt(fields[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// heapInUse returns post-GC live heap bytes.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// soakRun is what one soak reports beyond its pass/fail gates.
type soakRun struct {
	wall      time.Duration
	peakRSSKB int64 // highest resident set sampled during the run
	retained  int64 // live heap after the run minus before it, bytes
}

// soak streams packets of a churning workload holding streams concurrent
// streams through the production driver and applies the structural gates.
func soak(tb testing.TB, streams, packets int) soakRun {
	tb.Helper()
	goroutinesBefore := runtime.NumGoroutine()
	heapBefore := heapInUse()

	gcfg := trace.DefaultStreamConfig()
	gcfg.Streams = streams
	gcfg.Packets = packets
	gcfg.Interval = 50 * time.Microsecond
	gcfg.ChurnEvery = 64
	gen, err := trace.NewStreamGen(gcfg)
	if err != nil {
		tb.Fatal(err)
	}

	// Cadences scale with the trace span so both shapes exercise every
	// mechanism: several windows, several fulls, an order of magnitude
	// more deltas, and idle sweeps that actually catch churned streams.
	span := time.Duration(packets) * gcfg.Interval
	dir := tb.TempDir()
	f := &engine.Flags{
		Obs:                &engine.ObsFlags{},
		Workers:            4,
		Checkpoint:         dir + "/state.zlcp",
		CheckpointInterval: span / 6,
		CheckpointDelta:    span / 60,
		CheckpointKeep:     2,
		Rotate:             span / 3,
		RotateOut:          dir + "/window",
		FlowTTL:            span / 10,
		MaxFinished:        streams,
	}

	// Sample peak RSS from inside the record source — the driver owns
	// the loop, so this is the only hook that sees the run mid-flight.
	peakRSS := readRSSKB()
	sampled := 0
	next := func(rec *pcap.Record) error {
		sampled++
		if sampled%50_000 == 0 {
			peakRSS = max(peakRSS, readRSSKB())
		}
		return gen.Next(rec)
	}

	start := time.Now()
	run, err := f.RunFrom([]netip.Prefix{gcfg.ZoomNet}, next, func() bool { return false })
	if err != nil {
		tb.Fatal(err)
	}
	wall := time.Since(start)
	run.Close()
	peakRSS = max(peakRSS, readRSSKB())

	summary := run.Analyzer.Summary()
	if summary.Packets == 0 {
		tb.Fatal("soak run analyzed nothing")
	}
	if fulls := run.Checkpointer.Fulls; fulls < 2 {
		tb.Errorf("checkpoint chain wrote %d fulls, want >= 2", fulls)
	}
	if deltas := run.Checkpointer.Deltas; deltas < 3 {
		tb.Errorf("checkpoint chain wrote %d deltas, want >= 3", deltas)
	}
	if run.Rotations < 1 {
		tb.Errorf("rotation never fired (%d windows)", run.Rotations)
	}
	if summary.EvictedFlows+summary.EvictedStreams == 0 {
		tb.Error("churned soak evicted nothing: idle eviction inactive")
	}
	tb.Logf("soak: %d streams, %d packets in %.1fs; %d fulls + %d deltas, %d rotations, %d evictions",
		streams, packets, wall.Seconds(), run.Checkpointer.Fulls, run.Checkpointer.Deltas, run.Rotations,
		summary.EvictedFlows+summary.EvictedStreams)

	// Leak gates. Goroutines must return to the pre-run baseline, and
	// live heap must return near it once the run's result is released —
	// any per-packet or per-window state retained past the run is a leak
	// this catches.
	run = nil
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			tb.Fatalf("goroutines not flat after soak: %d vs %d baseline\n%s",
				runtime.NumGoroutine(), goroutinesBefore, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
	retained := int64(heapInUse()) - int64(heapBefore)
	if retained > 256<<20 {
		tb.Errorf("live heap grew %d MB across the soak (ceiling 256 MB): retained state leaked", retained>>20)
	}
	return soakRun{wall: wall, peakRSSKB: peakRSS, retained: retained}
}

// TestSoak is the laptop shape of the soak: every structural gate, plus
// the deterministic half of the incremental-checkpoint claim — a delta
// after 1% of the streams changed is a small fraction of a full
// snapshot's bytes (what it costs in time is BenchmarkSoak's gate).
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: soak harness")
	}
	const streams = 2000
	soak(t, streams, 100_000)

	a := checkpointStateAnalyzer(t, streams)
	var full, delta bytes.Buffer
	if err := a.Checkpoint(&full); err != nil {
		t.Fatal(err)
	}
	touchStreams(t, a, streams/100)
	if err := a.CheckpointDelta(&delta); err != nil {
		t.Fatal(err)
	}
	if delta.Len()*20 > full.Len() {
		t.Errorf("delta after 1%% of %d streams changed is %d bytes, full snapshot %d: want under a twentieth",
			streams, delta.Len(), full.Len())
	}

	// The other half: every stream active. A delta then carries each
	// stream's bounded head and the tails its logs grew since the full,
	// never the history the full already holds — a full at 60 % of the
	// shared two-meeting capture, a delta 5 % later.
	at, frames, cfg := benchTrace(t)
	busy := NewAnalyzer(cfg)
	feed := func(from, to int) {
		for i := from; i < to; i++ {
			busy.Packet(at[i], frames[i])
		}
	}
	full.Reset()
	delta.Reset()
	feed(0, len(frames)*60/100)
	if err := busy.Checkpoint(&full); err != nil {
		t.Fatal(err)
	}
	feed(len(frames)*60/100, len(frames)*65/100)
	if err := busy.CheckpointDelta(&delta); err != nil {
		t.Fatal(err)
	}
	if delta.Len()*4 > full.Len() {
		t.Errorf("delta 5%% of the capture after a full, every stream dirty, is %d bytes, the full %d: want under a quarter",
			delta.Len(), full.Len())
	}
	t.Logf("every stream dirty: full %d bytes, delta %d (%.2fx)", full.Len(), delta.Len(), float64(delta.Len())/float64(full.Len()))
}

// Budgets of the 100k-stream shape, each 1.5x what this tree measures on
// the 2-vCPU sandbox (DESIGN §11, "The soak, measured").
const (
	// The resident set peaks at the Go heap goal, not at retained state:
	// ~650 MB live at the last collection — per-stream state x 100k and
	// one full checkpoint's encode buffer — doubled by GOGC=100, ~1.3 GB
	// (GOGC=50 brings the same run to ~0.97 GB).
	soakPeakRSSBudgetMB = 1900
	// A delta record after 1% of 100k streams changed: ~4.3 ms, the cost
	// of the 1,000 records on the change logs (it was ~130-160 ms while
	// selecting them and clearing their bits walked all 100k). Gated on its
	// own cost, not on its ratio to a full encode, which every codec
	// optimisation shrinks.
	soakDeltaBudgetMS = 6.5
)

// BenchmarkSoak is the full shape: 100k concurrent streams with churn,
// 1.5M packets. Beyond the structural gates it reports throughput, the
// resident-set peak, the heap retained after the run and the cost of a
// full and of a 1%-touched delta checkpoint at that stream count, and
// fails over the peak and delta budgets.
func BenchmarkSoak(b *testing.B) {
	const streams, packets = 100_000, 1_500_000
	for i := 0; i < b.N; i++ {
		res := soak(b, streams, packets)

		a := checkpointStateAnalyzer(b, streams)
		fullMS := bestEncodeMS(b, 3, func() {}, a.Checkpoint)
		deltaMS := bestEncodeMS(b, 3, func() { touchStreams(b, a, streams/100) }, a.CheckpointDelta)

		b.ReportMetric(float64(packets)/res.wall.Seconds(), "pkts/s")
		b.ReportMetric(float64(res.peakRSSKB)/1024, "rss-peak-MB")
		b.ReportMetric(float64(res.retained)/(1<<20), "retained-heap-MB")
		b.ReportMetric(fullMS, "full-ms")
		b.ReportMetric(deltaMS, "delta-ms")
		if mb := res.peakRSSKB >> 10; mb > soakPeakRSSBudgetMB {
			b.Errorf("resident set peaked at %d MB, budget %d MB", mb, soakPeakRSSBudgetMB)
		}
		if deltaMS > soakDeltaBudgetMS {
			b.Errorf("delta checkpoint after 1%% of %d streams changed took %.1f ms, budget %.1f ms (full %.1f ms)",
				streams, deltaMS, soakDeltaBudgetMS, fullMS)
		}
	}
}

// bestEncodeMS times encode best-of-n (the minimum is the least noisy
// estimator for a deterministic CPU-bound encode), running prepare,
// untimed, before each: an encode clears what a delta has to say, so a
// delta's passes each need their streams dirtied again.
func bestEncodeMS(tb testing.TB, n int, prepare func(), encode func(io.Writer) error) float64 {
	tb.Helper()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		prepare()
		start := time.Now()
		if err := encode(io.Discard); err != nil {
			tb.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / 1e6
}

// touchStreams dirties the first n streams of a checkpointStateAnalyzer
// by feeding each one more packet with the identities the builder used
// (src pattern keyed on the stream index, SSRC s+1).
func touchStreams(tb testing.TB, a *Analyzer, n int) {
	tb.Helper()
	dst := netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, 7}), 8801)
	at := time.Date(2022, 3, 1, 12, 30, 0, 0, time.UTC)
	const p = 4 // continues the builder's per-stream sequence
	for s := 0; s < n; s++ {
		src := netip.AddrPortFrom(
			netip.AddrFrom4([4]byte{10, byte(s >> 10 & 0x3f), byte(s >> 4 & 0x3f), byte(1 + s&0xf)}),
			uint16(20000+s%16),
		)
		h := sim.Header{Kind: sim.KindVideo, SFUSeq: p, MediaSeq: p, MediaTS: p * 3000,
			PT: sim.PTVideoMain, Seq: p, TS: p * 3000, SSRC: uint32(s + 1)}
		a.Packet(at, layers.EthernetIPv4UDP(src, dst, 64, append(sim.AppendHeaders(nil, &h), 0xde, 0xad, 0xbe, 0xef)))
	}
}
