package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"zoomlens/internal/flow"
	"zoomlens/internal/layers"
	"zoomlens/internal/pcap"
)

// TestMediaObsSize pins the in-process observation's cost per media
// packet — what a queue-fed shard's log holds until the reconciler
// replays it — and prints it for `make loc`. It names its stream through
// the owner, so no field may hold a stream ID or five-tuple by value.
func TestMediaObsSize(t *testing.T) {
	size := unsafe.Sizeof(mediaObs{})
	t.Logf("bytes per in-process observation: %d", size)
	if size > 56 {
		t.Errorf("mediaObs is %d bytes, want at most 56", size)
	}
	rt := reflect.TypeOf(mediaObs{})
	for i := 0; i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type {
		case reflect.TypeOf(flow.MediaStreamID{}), reflect.TypeOf(layers.FiveTuple{}):
			t.Errorf("mediaObs.%s holds a %s by value: the stream is the owner's to name", f.Name, f.Type)
		}
	}
}

// TestShardBatchByteBound feeds a queue-fed front end frames of 60 B to
// 9 KiB, with bursts of 9 KiB jumbo frames and a few over 64 KiB, and
// holds what it ships to the byte cap: no batch over shardBatchBytes plus
// one frame or over shardBatchSize frames, every frame copied whole under
// its own sequence number, and no buffer over the cap back in the pool
// (a frame over 64 KiB travels alone and its buffer is dropped). The same
// frames through engines of 2 and 4 workers must report byte-identically
// to the sequential engine.
func TestShardBatchByteBound(t *testing.T) {
	tr, opts := seededTrace(t, 8)
	rng := rand.New(rand.NewSource(50))
	recs := make([]pcap.Record, len(tr.frames))
	jumbo, oversize := 0, 0
	for i, f := range tr.frames {
		size := len(f)
		switch {
		case i%2000 >= 1000 && i%2000 < 1600: // a burst: ~300 jumbo frames a shard at two workers
			size = 9000
			jumbo++
		case i%1999 == 0:
			size = 80 << 10
			oversize++
		case rng.Intn(4) == 0:
			size = 60 + rng.Intn(9<<10-60)
		}
		if size > len(f) {
			// Trailing bytes past the IP total length are Ethernet padding
			// to every parser: same packet, larger frame.
			f = append(bytes.Clone(f), make([]byte, size-len(f))...)
		}
		recs[i] = pcap.Record{Timestamp: tr.at[i], Data: f}
	}
	t.Logf("%d frames, %d jumbo, %d oversize", len(recs), jumbo, oversize)
	if jumbo < 2*shardBatchSize || oversize == 0 {
		t.Fatalf("the trace has %d jumbo and %d oversize frames: too short to test the cap", jumbo, oversize)
	}
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
		FeatureWindow:  time.Second,
	}

	t.Run("shipped batches", func(t *testing.T) {
		// A queue-fed pipeline that runs no goroutine: its queues take the
		// whole trace, and the test drains them itself.
		const workers = 2
		p := newPipeline(cfg, workers)
		lim := scaleLimits(p.cfg, workers)
		p.shards = make([]*shard, workers)
		for i := range p.shards {
			p.shards[i] = newShard(lim, noObs)
			p.shards[i].queue = make(chan *pbatch, len(recs)+64)
		}
		p.recon = &reconciler{cuts: make(chan cut, 64)}
		p.Ingest(recs)
		kept := p.Packets - p.DroppedByFilter - p.Undecodable
		var copied uint64
		for si, sh := range p.shards {
			if sh.cur != nil {
				p.ship(sh)
			}
			close(sh.queue)
			for b := range sh.queue {
				if b.cut != nil {
					putBatch(b)
					continue
				}
				if n := len(b.items); n == 0 || n > shardBatchSize {
					t.Fatalf("shard %d: a batch of %d frames, want 1 to %d", si, n, shardBatchSize)
				}
				last := &b.items[len(b.items)-1]
				if over := len(b.data) - int(last.end-last.off); over > shardBatchBytes {
					t.Errorf("shard %d: a batch of %d frames holds %d bytes, %d before its last frame: over the %d-byte cap plus one frame",
						si, len(b.items), len(b.data), over, shardBatchBytes)
				}
				if len(b.data) > shardBatchBytes && len(b.items) > 1 {
					t.Errorf("shard %d: a batch of %d frames holds %d bytes: only one frame over the cap may exceed it, alone", si, len(b.items), len(b.data))
				}
				for _, it := range b.items {
					if !bytes.Equal(b.data[it.off:it.end], recs[it.seq-1].Data) || !it.at.Equal(recs[it.seq-1].Timestamp) {
						t.Fatalf("shard %d: frame %d does not arrive as it was captured", si, it.seq)
					}
					copied++
				}
				putBatch(b)
				if cap(b.data) > shardBatchBytes || cap(b.items) > shardBatchSize {
					t.Errorf("shard %d: putBatch pooled %d bytes and %d items of room, want at most %d and %d",
						si, cap(b.data), cap(b.items), shardBatchBytes, shardBatchSize)
				}
			}
		}
		if copied != kept || kept == 0 {
			t.Errorf("the shards were handed %d frames, the front end kept %d", copied, kept)
		}
	})

	var want []byte
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pa := NewParallelAnalyzer(cfg, workers)
			pa.Ingest(recs)
			rows := pa.DrainFeatures()
			pa.Finish()
			a := pa.Result()
			checkConservation(t, "byte-capped batches", a)
			var b bytes.Buffer
			b.Write(reportBytes(t, a))
			fmt.Fprintf(&b, "%+v\n", rows)
			if workers == 1 {
				want = b.Bytes()
				if len(rows) == 0 || a.UDPKeptPackets == 0 {
					t.Fatalf("the sequential run kept %d UDP packets and %d feature rows: the report compares nothing", a.UDPKeptPackets, len(rows))
				}
				return
			}
			if !bytes.Equal(b.Bytes(), want) {
				t.Errorf("report differs from the sequential engine's (%d vs %d bytes)", b.Len(), len(want))
			}
		})
	}
}
