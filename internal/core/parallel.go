package core

// The queue transport: how a pipeline with more than one shard spreads
// per-flow work over cores.
//
// Per-flow independence makes the pipeline shardable: all heavy
// per-packet work (frame decode, encapsulation parsing, frame assembly,
// jitter, loss, rate series, TCP RTT matching) only ever touches state
// keyed by the packet's flow, so hashing each flow to one of N shards
// preserves exact per-flow processing order while spreading the work.
// The front end stays thin — header scan, capture filter, shard hash —
// then copies the frame into a per-shard batch and hands full batches
// over a bounded channel; the shard goroutine owns the decode.
//
// The cross-flow stages cannot be sharded. Shards log a compact
// observation per media packet into pooled chunks instead, each tagged
// with the front end's sequence number, and the front-end goroutine
// replays the logs through the one reconciliation consumer in global
// capture order (a k-way merge) at every quiesce boundary: Snapshot,
// Checkpoint, Rotate, DrainFeatures, a periodic cadence, and Finish.
// The consumers are deterministic in observation order, so replaying in
// batches is indistinguishable from feeding them packet by packet — and
// the merged result is byte-identical to the sequential engine's.

import (
	"runtime"
	"strconv"
	"sync"
	"time"

	"zoomlens/internal/obs"
)

const (
	// shardBatchSize is how many packets the front end buffers per shard
	// before handing the batch to the worker.
	shardBatchSize = 256
	// shardQueueDepth is the capacity of each shard's batch channel: deep
	// enough that a shard stays busy while the front end fills the next
	// batch, shallow enough that a full queue blocks the front end
	// (backpressure) with at most ~1k frames buffered per shard. The
	// hand-off is amortised over shardBatchSize packets, so the batching,
	// not the queue behind it, is what the throughput depends on.
	shardQueueDepth = 4
	// reconEvery is the periodic reconciliation cadence in packets: even
	// a run that never snapshots or checkpoints drains the shard
	// observation logs (and recycles their chunks) this often, so the logs
	// hold at most this many packets' observations (128 bytes each) however
	// long the run, and the cross-flow pass is spread over the run instead
	// of left for Finish. Measured on the 400 k-packet campus capture at
	// two workers: 2^14 / 2^16 / 2^18 / 2^20 peak at 48 / 55 / 82 / 97 MB,
	// and 2^16 is the fastest of the four (a barrier per 65 k packets costs
	// less than first-touching the memory it saves).
	reconEvery = 1 << 16
)

// pbatch is one unit of work handed to a shard: frames copied
// back-to-back into data, with per-packet offsets in items. A batch with
// sync set carries no packets; the shard acknowledges on the channel
// after draining everything queued before it (the quiesce barrier — the
// ack's happens-before edge makes the shard's state safely readable from
// the front-end goroutine until more work is sent). Batches come from
// and return to the package-wide framePool.
type pbatch struct {
	items []pitem
	data  []byte
	sync  chan<- struct{}
}

// pitem is one packet within a batch: the capture metadata and the
// frame's offsets into the batch buffer.
type pitem struct {
	seq      uint64
	at       time.Time
	off, end int32
}

// ParallelAnalyzer is the sharded multi-core engine: one front-end
// goroutine (the caller's) plus one goroutine per shard. Feed packets in
// capture order via Packet (or a whole file via ReadPCAP), call Finish
// once, then read results via Result(), which returns the merged
// *Analyzer. Results are byte-identical to the sequential Analyzer at any
// worker count; with one worker it is the sequential engine (one inline
// shard, no goroutine, no frame copy). Memory is bounded by queue
// backpressure.
type ParallelAnalyzer struct {
	*pipeline
}

// NewParallelAnalyzer builds a sharded analyzer with the given worker
// count; workers <= 0 selects runtime.NumCPU().
func NewParallelAnalyzer(cfg Config, workers int) *ParallelAnalyzer {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	p := newPipeline(cfg, workers)
	if workers == 1 {
		p.setInline(newShard(p.cfg, p.o))
		return &ParallelAnalyzer{p}
	}
	lim := scaleLimits(p.cfg, workers)
	p.shards = make([]*shard, workers)
	for i := range p.shards {
		label := strconv.Itoa(i)
		sh := newShard(lim, newCoreObs(cfg.Obs, label, lim))
		sh.sink = sh.logObs
		sh.queue = make(chan *pbatch, shardQueueDepth)
		sh.done = make(chan struct{})
		if cfg.Obs != nil {
			sh.depth = cfg.Obs.Gauge("zoomlens_shard_queue_depth",
				"Batches queued per shard.", obs.L("shard", label))
		}
		p.shards[i] = sh
		go sh.run()
	}
	return &ParallelAnalyzer{p}
}

// run is a queue-fed shard's goroutine: drain batches until the queue
// closes.
func (sh *shard) run() {
	defer close(sh.done)
	for b := range sh.queue {
		// Consumer-side backlog update: the front end only writes the
		// gauge on enqueue, so without this an idle shard would report its
		// last backlog forever.
		sh.depth.Set(int64(len(sh.queue)))
		if b.sync != nil {
			b.sync <- struct{}{}
			putBatch(b)
			continue
		}
		for i := range b.items {
			it := &b.items[i]
			sh.process(it.seq, it.at, b.data[it.off:it.end])
			sh.tick(it.at)
			if sh.so.on() && sh.ticks%obsUpdateEvery == 0 {
				sh.refreshGauges()
			}
		}
		putBatch(b)
	}
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

// logObs is a queue-fed shard's sink: append to the pending chain.
func (sh *shard) logObs(o *ClusterObs) {
	c := sh.obsTail
	if c == nil || c.n == obsChunkLen {
		nc := getObsChunk()
		if c == nil {
			sh.obsHead = nc
		} else {
			c.next = nc
		}
		sh.obsTail = nc
		c = nc
	}
	c.e[c.n] = *o
	c.n++
}

// dispatch is the queue-fed half of PacketSeq: copy a kept frame into
// its shard's batch under construction, ship the batch when full, and
// reconcile on the periodic cadence.
func (p *pipeline) dispatch(sh *shard, keep bool, seq uint64, at time.Time, frame []byte) {
	if keep {
		if sh.cur == nil {
			sh.cur = getBatch()
		}
		b := sh.cur
		off := int32(len(b.data))
		b.data = append(b.data, frame...)
		b.items = append(b.items, pitem{seq: seq, at: at, off: off, end: int32(len(b.data))})
		if len(b.items) >= shardBatchSize {
			p.ship(sh)
		}
	}
	if seq%reconEvery == 0 {
		p.reconcile()
	}
}

// ship hands a full batch to its shard: blocking on a full queue, or —
// under Config.Shed — dropping the whole batch with accounting instead
// of stalling ingest (live capture would otherwise lose packets
// invisibly in the kernel).
func (p *pipeline) ship(sh *shard) {
	b := sh.cur
	sh.cur = nil
	if !p.cfg.Shed {
		sh.queue <- b
	} else {
		select {
		case sh.queue <- b:
		default:
			p.ShedPackets += uint64(len(b.items))
			p.ShedBytes += uint64(len(b.data))
			p.o.shedPackets.Add(uint64(len(b.items)))
			p.o.shedBytes.Add(uint64(len(b.data)))
			putBatch(b)
			return
		}
	}
	// Producer-side backlog sample; the shard updates the same gauge on
	// dequeue, so it tracks both directions.
	sh.depth.Set(int64(len(sh.queue)))
}

// reconcile brings the cross-flow state up to date with every packet
// routed so far. Queue-fed shards are parked at a barrier — partial
// batches flushed, queues drained; on return their state is safely
// readable from this goroutine (the ack receive is the happens-before
// edge) and stays frozen until more work is dispatched — and their
// pending observations are replayed in global capture order: a k-way
// merge by sequence number (each chain is already sorted, shards consume
// their queue FIFO), after which the consumed chunks are recycled. An
// inline pipeline has nothing pending.
func (p *pipeline) reconcile() {
	if !p.queueFed() {
		return
	}
	ack := make(chan struct{}, len(p.shards))
	for _, sh := range p.shards {
		if sh.cur != nil && len(sh.cur.items) > 0 {
			sh.queue <- sh.cur
			sh.cur = nil
		}
		sb := getBatch()
		sb.sync = ack
		sh.queue <- sb
	}
	for range p.shards {
		<-ack
	}
	for _, sh := range p.shards {
		// Every queue is drained; report the quiesced backlog explicitly
		// (the shard-side update raced the last enqueue sample).
		sh.depth.Set(0)
	}
	p.replayLogs()
}

// replayLogs feeds every pending shard observation through the
// reconciliation consumer in sequence order. Call only while the shards
// are parked or have exited.
func (p *pipeline) replayLogs() {
	type cursor struct {
		c *obsChunk
		i int
	}
	cur := make([]cursor, len(p.shards))
	for si, sh := range p.shards {
		cur[si] = cursor{c: sh.obsHead}
	}
	for {
		best := -1
		var bestSeq uint64
		for si := range cur {
			cc := &cur[si]
			for cc.c != nil && cc.i >= cc.c.n {
				cc.c, cc.i = cc.c.next, 0
			}
			if cc.c == nil {
				continue
			}
			if s := cc.c.e[cc.i].Seq; best < 0 || s < bestSeq {
				best, bestSeq = si, s
			}
		}
		if best < 0 {
			break
		}
		p.observe(&cur[best].c.e[cur[best].i])
		cur[best].i++
	}
	for _, sh := range p.shards {
		for c := sh.obsHead; c != nil; {
			nc := c.next
			putObsChunk(c)
			c = nc
		}
		sh.obsHead, sh.obsTail = nil, nil
	}
}

// stop flushes and closes every queue and waits for the shard goroutines
// to exit; afterwards their state belongs to the caller's goroutine.
func (p *pipeline) stop() {
	for _, sh := range p.shards {
		if sh.cur != nil && len(sh.cur.items) > 0 {
			sh.queue <- sh.cur
		}
		sh.cur = nil
		close(sh.queue)
	}
	for _, sh := range p.shards {
		<-sh.done
		sh.depth.Set(0)
	}
}

// collapse is Finish's first half for a queue-fed pipeline: stop the
// shards, reconcile what they still had logged, and fold their state
// into one inline shard. An inline pipeline is already collapsed.
func (p *pipeline) collapse() {
	if !p.queueFed() {
		return
	}
	defer p.cfg.trace("merge")()
	p.stop()
	p.replayLogs()
	p.updateGauges()
	// The shards and the front end already fed the shared counters and
	// mirrored their cumulative eviction stats; the merged shard holds
	// those same cumulative counts, so letting it mirror too would
	// double-count. Its gauges are redundant with the per-shard series.
	p.o = noObs
	p.setInline(mergeShards(p.cfg, p.shards))
}
