package zoomlens

// Benchmarks for the checkpoint codec at production scale: a campus
// border at the paper's traffic levels tracks on the order of 10k live
// streams, and the engine driver checkpoints on a timer while holding
// the packet path. The budget is <100ms to encode that state and <100ms
// to restore it — enforced by BenchmarkCheckpoint's 10k-stream rows,
// which `make checkpoint-check` runs.

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"testing"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/sim"
)

// checkpointStateAnalyzer grows an analyzer to the requested number of
// live media streams: every stream is a distinct (flow, SSRC) pair with
// a handful of packets, so StreamMetrics, the flow table, and dedup
// state all scale with the stream count the way they do in production.
func checkpointStateAnalyzer(tb testing.TB, streams int) *Analyzer {
	tb.Helper()
	cfg := Config{
		PreFiltered: true,
		MaxFlows:    4 * streams,
		MaxStreams:  2 * streams,
	}
	a := NewAnalyzer(cfg)
	dst := netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, 7}), 8801)
	start := time.Date(2022, 3, 1, 12, 0, 0, 0, time.UTC)
	const packetsPerStream = 4
	for s := 0; s < streams; s++ {
		src := netip.AddrPortFrom(
			netip.AddrFrom4([4]byte{10, byte(s >> 10 & 0x3f), byte(s >> 4 & 0x3f), byte(1 + s&0xf)}),
			uint16(20000+s%16),
		)
		for p := 0; p < packetsPerStream; p++ {
			h := sim.Header{Kind: sim.KindVideo, SFUSeq: uint16(p), MediaSeq: uint16(p), MediaTS: uint32(p * 3000),
				PT: sim.PTVideoMain, Seq: uint16(p), TS: uint32(p * 3000), SSRC: uint32(s + 1)}
			frame := layers.EthernetIPv4UDP(src, dst, 64, append(sim.AppendHeaders(nil, &h), 0xde, 0xad, 0xbe, 0xef))
			a.Packet(start.Add(time.Duration(p)*33*time.Millisecond), frame)
		}
	}
	return a
}

// checkpointBudget is the recovery-path budget at 10k streams, for each
// of encode (the engine driver holds the packet path while encoding) and
// restore (a crashed tap must be back on the wire promptly).
const checkpointBudget = 100 * time.Millisecond

// deltaActiveBudget is 1.5x what a delta record with all 10k streams
// dirty costs to encode on the 2-vCPU sandbox: 41-46 ms for the one cold
// pass `make checkpoint-check` times (28-35 ms averaged over ten; the full
// record of the same state, 50-62 ms).
const deltaActiveBudget = 65 * time.Millisecond

func BenchmarkCheckpoint(b *testing.B) {
	overBudget := func(b *testing.B, streams int, what string) {
		b.StopTimer()
		if per := b.Elapsed() / time.Duration(b.N); streams == 10000 && per > checkpointBudget {
			b.Errorf("10k-stream checkpoint %s in %v, budget is %v", what, per, checkpointBudget)
		}
	}
	for _, streams := range []int{1000, 10000} {
		a := checkpointStateAnalyzer(b, streams)
		var buf bytes.Buffer
		if err := a.Checkpoint(&buf); err != nil {
			b.Fatal(err)
		}
		size := buf.Len()

		b.Run(fmt.Sprintf("encode/streams=%d", streams), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := a.Checkpoint(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			overBudget(b, streams, "encodes")
		})
		b.Run(fmt.Sprintf("restore/streams=%d", streams), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			cfg := Config{PreFiltered: true}
			for i := 0; i < b.N; i++ {
				if _, err := RestoreAnalyzer(bytes.NewReader(buf.Bytes()), cfg); err != nil {
					b.Fatal(err)
				}
			}
			overBudget(b, streams, "restores")
		})
		// The record a busy tap cuts every cadence tick: every stream took a
		// packet since the last checkpoint, so every stream's head travels
		// — but of its logs only the tail. Timed by hand: each pass needs
		// the streams dirtied again first.
		b.Run(fmt.Sprintf("delta-active/streams=%d", streams), func(b *testing.B) {
			var rec bytes.Buffer
			var spent time.Duration
			for i := 0; i < b.N; i++ {
				touchStreams(b, a, streams)
				rec.Reset()
				start := time.Now()
				if err := a.CheckpointDelta(&rec); err != nil {
					b.Fatal(err)
				}
				spent += time.Since(start)
			}
			per := spent / time.Duration(b.N)
			b.ReportMetric(float64(per.Nanoseconds())/1e6, "delta-ms")
			b.ReportMetric(float64(rec.Len()), "delta-bytes")
			b.ReportMetric(float64(rec.Len())/float64(size), "delta/full")
			if streams == 10000 && per > deltaActiveBudget {
				b.Errorf("10k-stream delta with every stream dirty encodes in %v, budget is %v", per, deltaActiveBudget)
			}
		})
	}
}
