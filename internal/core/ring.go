package core

// Lock-free plumbing for the ring transport: a single-producer
// single-consumer batch ring per shard and a pooled chunk list for the
// media-observation log.

import (
	"sync"
	"sync/atomic"
)

// spscRing is a bounded single-producer single-consumer queue of
// batches. The fast path is two atomic loads and one atomic store per
// push/pop, with no locks and no channel transfer of the payload; the
// notify channels only carry park/wake signals when one side runs dry
// (consumer starved) or full (producer backpressured), so an in-balance
// pipeline never context-switches on the queue.
//
// Only one goroutine may push (and close), and only one may pop.
type spscRing struct {
	slots []*pbatch
	mask  uint64

	head atomic.Uint64 // next slot to pop (consumer-owned)
	tail atomic.Uint64 // next slot to fill (producer-owned)

	closed      atomic.Bool
	notifyData  chan struct{} // producer → consumer: new batch available
	notifySpace chan struct{} // consumer → producer: slot freed
}

// newSPSCRing builds a ring with the given capacity (rounded up to a
// power of two, minimum 2).
func newSPSCRing(capacity int) *spscRing {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &spscRing{
		slots:       make([]*pbatch, n),
		mask:        uint64(n - 1),
		notifyData:  make(chan struct{}, 1),
		notifySpace: make(chan struct{}, 1),
	}
}

// len reports the current batch backlog (racy but monotonic enough for
// a gauge). The two loads are not atomic together: when the consumer
// advances head between them, head can be observed past tail and the
// uint64 difference wraps to an enormous value — clamp that to an empty
// ring instead of poisoning the gauge.
func (r *spscRing) len() int {
	t, h := r.tail.Load(), r.head.Load()
	if h >= t {
		return 0
	}
	return int(t - h)
}

// push enqueues one batch, blocking while the ring is full
// (backpressure on the dispatcher). Producer-only.
func (r *spscRing) push(b *pbatch) {
	for {
		t := r.tail.Load()
		if t-r.head.Load() < uint64(len(r.slots)) {
			r.slots[t&r.mask] = b
			r.tail.Store(t + 1)
			select {
			case r.notifyData <- struct{}{}:
			default:
			}
			return
		}
		// Full: park until the consumer frees a slot. The cap-1 notify
		// buffer means a wakeup sent between our check and this receive is
		// retained, so no wakeup is ever lost; a stale token just causes
		// one spurious re-check.
		<-r.notifySpace
	}
}

// tryPush enqueues one batch without blocking, returning false when the
// ring is full (the overload-shedding path: the caller drops the batch
// with accounting instead of stalling). Producer-only.
func (r *spscRing) tryPush(b *pbatch) bool {
	t := r.tail.Load()
	if t-r.head.Load() >= uint64(len(r.slots)) {
		return false
	}
	r.slots[t&r.mask] = b
	r.tail.Store(t + 1)
	select {
	case r.notifyData <- struct{}{}:
	default:
	}
	return true
}

// pop dequeues one batch, blocking while the ring is empty. It returns
// ok=false once the ring is closed and fully drained. Consumer-only.
func (r *spscRing) pop() (*pbatch, bool) {
	for {
		h := r.head.Load()
		if h < r.tail.Load() {
			b := r.slots[h&r.mask]
			r.slots[h&r.mask] = nil
			r.head.Store(h + 1)
			select {
			case r.notifySpace <- struct{}{}:
			default:
			}
			return b, true
		}
		if r.closed.Load() {
			// closed is stored after the producer's final push; an empty
			// ring observed after closed is a definitive end of stream.
			if r.head.Load() == r.tail.Load() {
				return nil, false
			}
			continue
		}
		<-r.notifyData
	}
}

// close marks the end of the stream. Producer-only; push must not be
// called afterwards. Closing notifyData wakes (and keeps waking) a
// parked consumer so it can observe the closed flag.
func (r *spscRing) close() {
	r.closed.Store(true)
	close(r.notifyData)
}

// obsChunkLen is the number of media observations per pooled chunk.
// Chunks are recycled as soon as a reconciliation pass consumes them, so
// the steady-state log footprint is one partially filled chunk per shard
// plus whatever accumulated since the last quiesce boundary.
const obsChunkLen = 512

// obsChunk is one fixed-size segment of a shard's media-observation log,
// chained oldest-first. The owning shard goroutine appends; the
// dispatcher consumes whole chains at quiesce boundaries (the sync-batch
// ack provides the happens-before edge in both directions).
type obsChunk struct {
	next *obsChunk
	n    int
	e    [obsChunkLen]ClusterObs
}

var obsChunkPool = sync.Pool{New: func() any { return new(obsChunk) }}

func getObsChunk() *obsChunk { return obsChunkPool.Get().(*obsChunk) }

func putObsChunk(c *obsChunk) {
	c.n = 0
	c.next = nil
	obsChunkPool.Put(c)
}
