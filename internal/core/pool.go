package core

import "sync"

// framePool is the one pool behind every transient frame copy the
// package makes: shard batches bound for a shard and the cut markers
// queued behind them draw *pbatch values from it and return them when
// drained.
var framePool = sync.Pool{New: func() any { return new(pbatch) }}

// getBatch checks a reset batch out of the pool.
func getBatch() *pbatch { return framePool.Get().(*pbatch) }

// putBatch resets a batch and returns it to the pool. The caller must
// be the last holder: items, data, and any packet slices into data
// become invalid the moment it lands back in the pool. A batch holds at
// most shardBatchSize frames and, unless one frame alone is larger,
// shardBatchBytes of frame data (see dispatch); a buffer that grew past
// that (a frame over 64 KiB) is dropped here instead of pinning its
// size in the pool forever — that retention is what once held workers-4
// at ~1.6x the sequential bytes/packet.
func putBatch(b *pbatch) {
	if cap(b.items) > shardBatchSize || cap(b.data) > shardBatchBytes {
		b.items, b.data = nil, nil
	} else {
		b.items, b.data = b.items[:0], b.data[:0]
	}
	b.cut, b.evict = nil, false
	framePool.Put(b)
}
