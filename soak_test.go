package zoomlens

// Leak-gated soak harness for continuous operation: a streamed (never
// materialized) synthetic workload with steady stream churn runs
// through the production driver — rotation, full + delta checkpoint
// chain, idle eviction, finished-archive cap all on — on a compressed
// trace clock. The gates are the continuous-operation claims: memory
// bounded (no growth retained after the run), goroutines flat, the
// checkpoint chain active, and incremental checkpoints materially
// cheaper than full snapshots at production stream counts.
//
// Plain `go test` runs a laptop-scale shape; `make soak-smoke` sets
// BENCH_SOAK_OUT to run the full 100k-stream shape and write its numbers
// there (a temp file, unless the caller names a path; `make bench`
// names BENCH_soak.json).

import (
	"bufio"
	"encoding/json"
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
	"zoomlens/internal/rtp"
	"zoomlens/internal/trace"
	"zoomlens/internal/zoom"
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

func TestBenchSoakJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: soak harness")
	}
	out := os.Getenv("BENCH_SOAK_OUT")
	fullShape := out != ""

	// The laptop shape keeps plain `go test` fast; the soak-smoke shape
	// holds 100k+ concurrent streams live through the driver.
	streams, packets := 2000, 100_000
	if fullShape {
		streams, packets = 100_000, 1_500_000
	}

	goroutinesBefore := runtime.NumGoroutine()
	heapBefore := heapInUse()
	rssBefore := readRSSKB()

	gcfg := trace.DefaultStreamConfig()
	gcfg.Streams = streams
	gcfg.Packets = packets
	gcfg.Interval = 50 * time.Microsecond
	gcfg.ChurnEvery = 64
	gen, err := trace.NewStreamGen(gcfg)
	if err != nil {
		t.Fatal(err)
	}

	// Cadences scale with the trace span so both shapes exercise every
	// mechanism: several windows, several fulls, an order of magnitude
	// more deltas, and idle sweeps that actually catch churned streams.
	span := time.Duration(packets) * gcfg.Interval
	dir := t.TempDir()
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
	peakRSS := rssBefore
	sampled := 0
	next := func(rec *pcap.Record) error {
		sampled++
		if sampled%50_000 == 0 {
			if rss := readRSSKB(); rss > peakRSS {
				peakRSS = rss
			}
		}
		return gen.Next(rec)
	}

	start := time.Now()
	run, err := f.RunFrom([]netip.Prefix{gcfg.ZoomNet}, next, func() bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	run.Close()
	if rss := readRSSKB(); rss > peakRSS {
		peakRSS = rss
	}

	summary := run.Analyzer.Summary()
	if summary.Packets == 0 {
		t.Fatal("soak run analyzed nothing")
	}
	fulls, deltas, rotations := run.Checkpointer.Fulls, run.Checkpointer.Deltas, run.Rotations
	if fulls < 2 {
		t.Errorf("checkpoint chain wrote %d fulls, want >= 2", fulls)
	}
	if deltas < 3 {
		t.Errorf("checkpoint chain wrote %d deltas, want >= 3", deltas)
	}
	if rotations < 1 {
		t.Errorf("rotation never fired (%d windows)", rotations)
	}
	evictions := summary.EvictedFlows + summary.EvictedStreams
	if evictions == 0 {
		t.Error("churned soak evicted nothing: idle eviction inactive")
	}

	// Leak gates. Goroutines must return to the pre-run baseline, and
	// live heap must return near it once the run's result is released —
	// any per-packet or per-window state retained past the run is a leak
	// this catches at 1.5M packets.
	run = nil
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines not flat after soak: %d vs %d baseline\n%s",
				runtime.NumGoroutine(), goroutinesBefore, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
	heapAfter := heapInUse()
	const heapCeiling = 256 << 20
	if heapAfter > heapBefore+heapCeiling {
		t.Errorf("live heap grew %d MB across the soak (ceiling 256 MB): retained state leaked",
			(heapAfter-heapBefore)>>20)
	}

	// Incremental-checkpoint economics at the soak's stream count: a
	// full snapshot of every stream versus a delta record after ~1% of
	// streams changed. The steady-state claim is that delta cost scales
	// with churn, not with total streams.
	a := checkpointStateAnalyzer(t, streams)
	fullMS := bestEncodeMS(t, 3, a.Checkpoint)
	touchStreams(t, a, streams/100)
	deltaMS := bestEncodeMS(t, 3, a.CheckpointDelta)
	ratio := fullMS / deltaMS

	report := map[string]any{
		"streams":              streams,
		"packets":              packets,
		"wall_seconds":         wall.Seconds(),
		"packets_per_second":   float64(packets) / wall.Seconds(),
		"full_checkpoints":     fulls,
		"delta_checkpoints":    deltas,
		"rotations":            rotations,
		"evictions":            evictions,
		"rss_before_kb":        rssBefore,
		"rss_peak_kb":          peakRSS,
		"heap_before_bytes":    heapBefore,
		"heap_after_bytes":     heapAfter,
		"full_encode_ms":       fullMS,
		"delta_encode_ms":      deltaMS,
		"delta_speedup":        ratio,
		"delta_speedup_floor":  5,
		"goroutines_baseline":  goroutinesBefore,
		"goroutines_after":     runtime.NumGoroutine(),
		"touched_stream_share": 0.01,
	}

	if fullShape {
		if ratio < 5 {
			t.Errorf("delta checkpoint only %.1fx cheaper than full at %d streams (floor 5x): full %.2fms, delta %.2fms",
				ratio, streams, fullMS, deltaMS)
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(out, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
	} else if ratio < 2 {
		// The laptop shape still sanity-checks the scaling direction.
		t.Errorf("delta checkpoint not cheaper than full at %d streams: full %.2fms, delta %.2fms",
			streams, fullMS, deltaMS)
	}
	t.Logf("soak: %d streams, %d packets in %.1fs (%.0f pkt/s); %d fulls + %d deltas; full %.2fms vs delta %.2fms (%.1fx); RSS %d -> peak %d MB",
		streams, packets, wall.Seconds(), float64(packets)/wall.Seconds(),
		fulls, deltas, fullMS, deltaMS, ratio, rssBefore>>10, peakRSS>>10)
}

// bestEncodeMS times encode best-of-n (the minimum is the least noisy
// estimator for a deterministic CPU-bound encode).
func bestEncodeMS(t *testing.T, n int, encode func(io.Writer) error) float64 {
	t.Helper()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := encode(io.Discard); err != nil {
			t.Fatal(err)
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
func touchStreams(t *testing.T, a *Analyzer, n int) {
	t.Helper()
	dst := netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, 7}), 8801)
	at := time.Date(2022, 3, 1, 12, 30, 0, 0, time.UTC)
	const p = 4 // continues the builder's per-stream sequence
	for s := 0; s < n; s++ {
		src := netip.AddrPortFrom(
			netip.AddrFrom4([4]byte{10, byte(s >> 10 & 0x3f), byte(s >> 4 & 0x3f), byte(1 + s&0xf)}),
			uint16(20000+s%16),
		)
		zp := zoom.Packet{
			ServerBased: true,
			SFU:         zoom.SFUEncap{Type: zoom.SFUTypeMedia, Sequence: p, Direction: zoom.DirToSFU},
			Media: zoom.MediaEncap{
				Type:      zoom.TypeVideo,
				Sequence:  p,
				Timestamp: p * 3000,
			},
			RTP: rtp.Packet{
				Header: rtp.Header{
					PayloadType:    98,
					SequenceNumber: p,
					Timestamp:      p * 3000,
					SSRC:           uint32(s + 1),
				},
				Payload: []byte{0xde, 0xad, 0xbe, 0xef},
			},
		}
		payload, err := zp.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		a.Packet(at, layers.EthernetIPv4UDP(src, dst, 64, payload))
	}
}
