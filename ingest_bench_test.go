package zoomlens

// Ingest-path benchmarks: the end-to-end hot loop from serialized pcap
// bytes through record reading and analysis, layer by layer on a
// 19k-packet in-memory fixture. The throughput of the real binary on a
// real file is bench/'s campus_seq and campus_par; ingest_alloc_test.go
// pins the per-packet allocation count and bytes.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
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

// BenchmarkIngestWorkerRatio is the cheap scaling tripwire `make
// bench-smoke` runs on every CI pass: a few timed passes of the
// sequential and 4-worker engines over the shared trace, failing only if
// the parallel path falls below a conservative floor of the sequential
// throughput. The floor (0.6x) is deliberately loose — CI runners are
// noisy and often single-core, where the best the sharded engine can do
// is sequential speed minus dispatch overhead. That workers win outright
// given real cores is bench/'s core.par_speedup on campus_par.
func BenchmarkIngestWorkerRatio(b *testing.B) {
	raw, _ := ingestTrace(b)
	_, _, cfg := benchTrace(b)

	fastest := func(workers int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if err := ingestAnalyzePass(raw, cfg, workers); err != nil {
				b.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	for i := 0; i < b.N; i++ {
		seq, w4 := fastest(1), fastest(4)
		b.ReportMetric(seq.Seconds()/w4.Seconds(), "workers4/seq")
		if w4.Seconds() > seq.Seconds()/0.6 {
			b.Errorf("workers4 pass took %v vs sequential %v — below the 0.6x smoke floor", w4, seq)
		}
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
