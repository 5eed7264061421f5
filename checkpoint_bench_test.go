package zoomlens

// Benchmarks for the checkpoint codec at production scale: a campus
// border at the paper's traffic levels tracks on the order of 10k live
// streams, and the engine driver checkpoints on a timer while holding
// the packet path. The budget is <100ms to encode that state — enforced
// by TestBenchCheckpointJSON, which `make bench` runs to snapshot the
// encode/restore numbers into BENCH_checkpoint.json.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"testing"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/rtp"
	"zoomlens/internal/zoom"
)

// checkpointStateAnalyzer grows an analyzer to the requested number of
// live media streams: every stream is a distinct (flow, SSRC) pair with
// a handful of packets, so StreamMetrics, the flow table, and dedup
// state all scale with the stream count the way they do in production.
func checkpointStateAnalyzer(tb testing.TB, streams int) *Analyzer {
	tb.Helper()
	cfg := Config{
		PreFiltered:       true,
		MaxFlows:          4 * streams,
		MaxStreams:        2 * streams,
		MaxMeetingStreams: 4 * streams,
		MaxFinished:       streams,
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
			zp := zoom.Packet{
				ServerBased: true,
				SFU:         zoom.SFUEncap{Type: zoom.SFUTypeMedia, Sequence: uint16(p), Direction: zoom.DirToSFU},
				Media: zoom.MediaEncap{
					Type:      zoom.TypeVideo,
					Sequence:  uint16(p),
					Timestamp: uint32(p * 3000),
				},
				RTP: rtp.Packet{
					Header: rtp.Header{
						PayloadType:    98,
						SequenceNumber: uint16(p),
						Timestamp:      uint32(p * 3000),
						SSRC:           uint32(s + 1),
					},
					Payload: []byte{0xde, 0xad, 0xbe, 0xef},
				},
			}
			payload, err := zp.Marshal()
			if err != nil {
				tb.Fatal(err)
			}
			frame := layers.EthernetIPv4UDP(src, dst, 64, payload)
			a.Packet(start.Add(time.Duration(p)*33*time.Millisecond), frame)
		}
	}
	return a
}

func BenchmarkCheckpoint(b *testing.B) {
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
		})
	}
}

// TestBenchCheckpointJSON snapshots the checkpoint codec numbers into
// the file named by BENCH_CHECKPOINT_OUT and enforces the recovery-path
// budgets: a 10k-stream checkpoint must serialize in under 100ms (the
// engine driver holds the packet path while encoding) and restore in
// under 100ms (a crashed tap must be back on the wire promptly). `make
// bench` sets the variable; plain `go test` skips.
func TestBenchCheckpointJSON(t *testing.T) {
	out := os.Getenv("BENCH_CHECKPOINT_OUT")
	if out == "" {
		t.Skip("BENCH_CHECKPOINT_OUT not set")
	}
	const streams = 10000
	a := checkpointStateAnalyzer(t, streams)
	var buf bytes.Buffer
	if err := a.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	encode := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := a.Checkpoint(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	restore := testing.Benchmark(func(b *testing.B) {
		cfg := Config{PreFiltered: true}
		for i := 0; i < b.N; i++ {
			if _, err := RestoreAnalyzer(bytes.NewReader(buf.Bytes()), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})

	encodeMS := float64(encode.NsPerOp()) / 1e6
	restoreMS := float64(restore.NsPerOp()) / 1e6
	report := map[string]any{
		"streams":           streams,
		"checkpoint_bytes":  buf.Len(),
		"bytes_per_stream":  float64(buf.Len()) / streams,
		"encode_ms":         encodeMS,
		"restore_ms":        restoreMS,
		"encode_budget_ms":  100,
		"restore_budget_ms": 100,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (encode %.2fms, restore %.2fms, %d bytes)", out, encodeMS, restoreMS, buf.Len())

	if encodeMS > 100 {
		t.Errorf("10k-stream checkpoint encodes in %.1fms, budget is 100ms", encodeMS)
	}
	if restoreMS > 100 {
		t.Errorf("10k-stream checkpoint restores in %.1fms, budget is 100ms", restoreMS)
	}
}
