package zoomlens

// Ingest-path benchmarks: the end-to-end hot loop from serialized pcap
// bytes through record reading and analysis. These are the numbers the
// engine refactor is accountable to — `make bench` snapshots them into
// BENCH_ingest.json so later PRs have a trajectory, and
// ingest_alloc_test.go pins the per-packet allocation count.

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"zoomlens/internal/pcap"
)

// ingestTrace lazily serializes the shared benchmark trace into
// in-memory classic pcap and pcapng captures, so the ingest benchmarks
// measure read+analyze end to end without disk noise.
var ingestTraceOnce sync.Once
var ingestTracePcapBytes []byte
var ingestTraceNGBytes []byte

func ingestTrace(tb testing.TB) (pcapBytes, ngBytes []byte) {
	tb.Helper()
	at, frames, _ := benchTrace(tb)
	ingestTraceOnce.Do(func() {
		var buf bytes.Buffer
		w, err := pcap.NewWriter(&buf, pcap.WriterOptions{Nanosecond: true})
		if err != nil {
			panic(err)
		}
		for i := range frames {
			if err := w.WriteRecord(at[i], frames[i]); err != nil {
				panic(err)
			}
		}
		ingestTracePcapBytes = buf.Bytes()

		var ngBuf bytes.Buffer
		ng, err := pcap.NewNGWriter(&ngBuf, uint16(pcap.LinkTypeEthernet))
		if err != nil {
			panic(err)
		}
		for i := range frames {
			if err := ng.WriteRecord(at[i], frames[i]); err != nil {
				panic(err)
			}
		}
		ingestTraceNGBytes = ngBuf.Bytes()
	})
	return ingestTracePcapBytes, ingestTraceNGBytes
}

// ingestReadPass drains one serialized capture with the zero-copy
// reader, returning the record count.
func ingestReadPass(raw []byte) (int, error) { return ingestReadStream(bytes.NewReader(raw)) }

// ingestTraceFile writes one serialized capture to a temp file, so the
// read can be measured the way the tools pay for it: through an *os.File
// (page-cache warm — the file was just written), one read(2) per
// underlying Read. An in-memory reader has no syscalls and cannot see
// how many of them a record costs.
func ingestTraceFile(tb testing.TB, raw []byte) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "trace")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// ingestReadFilePass is ingestReadPass over a real file.
func ingestReadFilePass(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return ingestReadStream(f)
}

func ingestReadStream(r io.Reader) (int, error) {
	s, err := pcap.OpenStream(r)
	if err != nil {
		return 0, err
	}
	n := 0
	var rec pcap.Record
	for {
		err := s.NextInto(&rec)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// ingestAnalyzePass replays one serialized capture through an engine
// built from cfg: the same loop the internal/engine driver runs.
func ingestAnalyzePass(raw []byte, cfg Config, workers int) error {
	s, err := pcap.OpenStream(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	var eng Engine
	if workers > 1 {
		eng = NewParallelAnalyzer(cfg, workers)
	} else {
		eng = NewAnalyzer(cfg)
	}
	var rec pcap.Record
	for {
		err := s.NextInto(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		eng.Packet(rec.Timestamp, rec.Data)
	}
	eng.Finish()
	return nil
}

// BenchmarkIngestPath measures the three layers of the hot loop: the
// pure zero-copy record read for both formats — from memory, and from a
// real file, where each underlying Read is a system call — and the full
// read+analyze pipeline sequentially and sharded. ns/pkt and pkts/s are
// derived per-packet metrics on top of the usual per-pass numbers.
func BenchmarkIngestPath(b *testing.B) {
	raw, ngRaw := ingestTrace(b)
	_, frames, cfg := benchTrace(b)
	n := len(frames)
	var total int64
	for _, f := range frames {
		total += int64(len(f))
	}
	rawFile, ngFile := ingestTraceFile(b, raw), ingestTraceFile(b, ngRaw)

	for _, bc := range []struct {
		name string
		pass func() (int, error)
	}{
		{"read/pcap", func() (int, error) { return ingestReadPass(raw) }},
		{"read/pcapng", func() (int, error) { return ingestReadPass(ngRaw) }},
		{"read/pcap-file", func() (int, error) { return ingestReadFilePass(rawFile) }},
		{"read/pcapng-file", func() (int, error) { return ingestReadFilePass(ngFile) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(total)
			for i := 0; i < b.N; i++ {
				got, err := bc.pass()
				if err != nil {
					b.Fatal(err)
				}
				if got != n {
					b.Fatalf("read %d records, trace has %d", got, n)
				}
			}
			reportPerPacket(b, n)
		})
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"analyze/seq", 1},
		{"analyze/workers4", 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(total)
			for i := 0; i < b.N; i++ {
				if err := ingestAnalyzePass(raw, cfg, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
			reportPerPacket(b, n)
		})
	}
}

// TestIngestWorkerRatioSmoke is the cheap scaling tripwire `make
// bench-smoke` runs on every CI pass: a few timed passes of the
// sequential and 4-worker engines over the shared trace, failing only if
// the parallel path falls below a conservative floor of the sequential
// throughput. The floor (0.6x) is deliberately loose — CI runners are
// noisy and often single-core, where the best the sharded engine can do
// is sequential speed minus dispatch overhead. The strict ratio gate
// (workers must win outright given real cores) lives in
// TestBenchIngestJSON, which `make bench` runs on quiet hardware.
// Enabled by BENCH_RATIO_SMOKE; a plain `go test` skips it.
func TestIngestWorkerRatioSmoke(t *testing.T) {
	if os.Getenv("BENCH_RATIO_SMOKE") == "" {
		t.Skip("BENCH_RATIO_SMOKE not set")
	}
	raw, _ := ingestTrace(t)
	_, _, cfg := benchTrace(t)

	fastest := func(workers int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if err := ingestAnalyzePass(raw, cfg, workers); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	seq := fastest(1)
	w4 := fastest(4)
	t.Logf("seq %v, workers4 %v (ratio %.2f)", seq, w4, seq.Seconds()/w4.Seconds())
	if w4.Seconds() > seq.Seconds()/0.6 {
		t.Errorf("workers4 pass took %v vs sequential %v — below the 0.6x smoke floor", w4, seq)
	}
}

// reportPerPacket adds derived per-packet metrics to a sub-benchmark
// whose unit of work is one full pass over the n-packet trace.
func reportPerPacket(b *testing.B, n int) {
	b.StopTimer()
	el := b.Elapsed()
	if b.N > 0 && el > 0 {
		b.ReportMetric(float64(el.Nanoseconds())/float64(int64(b.N)*int64(n)), "ns/pkt")
		b.ReportMetric(float64(int64(b.N)*int64(n))/el.Seconds(), "pkts/s")
	}
}

// TestBenchIngestJSON snapshots the ingest benchmarks into the file
// named by BENCH_INGEST_OUT (per-packet ns, bytes, allocs, and
// packets/sec for each variant). `make bench` sets the variable; the
// test is a no-op otherwise so plain `go test` stays fast.
func TestBenchIngestJSON(t *testing.T) {
	out := os.Getenv("BENCH_INGEST_OUT")
	if out == "" {
		t.Skip("BENCH_INGEST_OUT not set")
	}
	raw, ngRaw := ingestTrace(t)
	_, frames, cfg := benchTrace(t)
	n := len(frames)

	type row struct {
		NsPerPacket     float64 `json:"ns_per_packet"`
		BytesPerPacket  float64 `json:"bytes_per_packet"`
		AllocsPerPacket float64 `json:"allocs_per_packet"`
		PacketsPerSec   float64 `json:"packets_per_sec"`
	}
	measure := func(pass func() error) row {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := pass(); err != nil {
					b.Fatal(err)
				}
			}
		})
		perPass := float64(res.NsPerOp())
		return row{
			NsPerPacket:     perPass / float64(n),
			BytesPerPacket:  float64(res.AllocedBytesPerOp()) / float64(n),
			AllocsPerPacket: float64(res.AllocsPerOp()) / float64(n),
			PacketsPerSec:   float64(n) / (perPass / float64(time.Second.Nanoseconds())),
		}
	}

	report := map[string]any{
		"trace_packets": n,
		// Measured on the same 30 s simulated two-meeting trace immediately
		// before the zero-copy engine refactor (allocating Next(), re-parse
		// per shard, per-batch buffers), kept here as the fixed comparison
		// point for the numbers below.
		"baseline_pre_refactor": map[string]row{
			"read/pcap":        {NsPerPacket: 276.33, BytesPerPacket: 498.71, AllocsPerPacket: 1.0005, PacketsPerSec: 3_618_890},
			"read/pcapng":      {NsPerPacket: 550.69, BytesPerPacket: 1027.53, AllocsPerPacket: 3.0009, PacketsPerSec: 1_815_905},
			"analyze/seq":      {NsPerPacket: 2588.66, BytesPerPacket: 1248.67, AllocsPerPacket: 3.678, PacketsPerSec: 386_300},
			"analyze/workers4": {NsPerPacket: 3257.25, BytesPerPacket: 2436.27, AllocsPerPacket: 3.719, PacketsPerSec: 307_008},
		},
		// The file-backed reads measured with this test at the commit before
		// the read window (PR 18), when every record cost two read(2) calls.
		"baseline_pre_window": map[string]row{
			"read/pcap-file":   {NsPerPacket: 1010.0, BytesPerPacket: 0.101, AllocsPerPacket: 0.00084, PacketsPerSec: 990_112},
			"read/pcapng-file": {NsPerPacket: 1012.7, BytesPerPacket: 0.106, AllocsPerPacket: 0.00100, PacketsPerSec: 987_449},
		},
	}
	seq := measure(func() error { return ingestAnalyzePass(raw, cfg, 1) })
	w4 := measure(func() error { return ingestAnalyzePass(raw, cfg, 4) })
	report["read/pcap"] = measure(func() error { _, err := ingestReadPass(raw); return err })
	report["read/pcapng"] = measure(func() error { _, err := ingestReadPass(ngRaw); return err })
	rawFile, ngFile := ingestTraceFile(t, raw), ingestTraceFile(t, ngRaw)
	report["read/pcap-file"] = measure(func() error { _, err := ingestReadFilePass(rawFile); return err })
	report["read/pcapng-file"] = measure(func() error { _, err := ingestReadFilePass(ngFile); return err })
	report["analyze/seq"] = seq
	report["analyze/workers4"] = w4
	report["gomaxprocs"] = runtime.GOMAXPROCS(0)

	// Scaling gates. With real parallelism available, the sharded engine
	// must beat the sequential one outright — that is the point of the
	// worker pool. On a single-CPU host the four shard goroutines time-slice
	// one core, so the best achievable is sequential throughput minus the
	// dispatch/copy overhead; gate that overhead instead so the ratio is
	// still enforced rather than silently skipped.
	ratio := w4.PacketsPerSec / seq.PacketsPerSec
	if runtime.GOMAXPROCS(0) >= 2 {
		if ratio <= 1.0 {
			t.Errorf("analyze/workers4 (%.0f pkts/s) not faster than analyze/seq (%.0f pkts/s) with GOMAXPROCS=%d",
				w4.PacketsPerSec, seq.PacketsPerSec, runtime.GOMAXPROCS(0))
		}
	} else if ratio < 0.80 {
		t.Errorf("analyze/workers4 (%.0f pkts/s) below 80%% of analyze/seq (%.0f pkts/s) on a single CPU — dispatch overhead regressed",
			w4.PacketsPerSec, seq.PacketsPerSec)
	}
	if seq.PacketsPerSec < 600_000 {
		t.Errorf("analyze/seq at %.0f pkts/s, floor is 600k", seq.PacketsPerSec)
	}
	// Memory parity: the shard batch pool must not retain grown buffers
	// (the pre-fix parallel path sat at ~1.6x sequential bytes/packet).
	if w4.BytesPerPacket > 1.25*seq.BytesPerPacket {
		t.Errorf("analyze/workers4 at %.0f B/pkt vs seq %.0f B/pkt — batch pool retaining oversized buffers",
			w4.BytesPerPacket, seq.BytesPerPacket)
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
}
