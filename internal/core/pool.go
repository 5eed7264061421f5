package core

import "sync"

// framePool is the one pool behind every transient frame copy the
// package makes: shard batches bound for a shard and the cut markers
// queued behind them draw *pbatch values from it and return them when
// drained.
var framePool = sync.Pool{New: func() any { return new(pbatch) }}

// A pooled batch normally holds at most shardBatchSize frames; the caps
// below bound what a pooled batch may retain. A batch that grew past
// them (a burst of jumbo frames) drops its buffer on put instead of
// pinning the high-water mark in the pool forever — that retention is
// what once held workers-4 at ~1.6x the sequential bytes/packet.
const (
	maxPooledBatchData  = shardBatchSize * 2048 // 512 KiB of frame bytes
	maxPooledBatchItems = 4 * shardBatchSize
)

// getBatch checks a reset batch out of the pool.
func getBatch() *pbatch { return framePool.Get().(*pbatch) }

// putBatch resets a batch and returns it to the pool. The caller must
// be the last holder: items, data, and any packet slices into data
// become invalid the moment it lands back in the pool.
func putBatch(b *pbatch) {
	if cap(b.items) > maxPooledBatchItems {
		b.items = nil
	} else {
		b.items = b.items[:0]
	}
	if cap(b.data) > maxPooledBatchData {
		b.data = nil
	} else {
		b.data = b.data[:0]
	}
	b.cut, b.evict = nil, false
	framePool.Put(b)
}
