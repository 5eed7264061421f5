package core

// The queue transport: how a pipeline with more than one shard spreads
// per-flow work over cores. All heavy per-packet work (decode, frame
// assembly, jitter, loss, rates, TCP RTT) touches only state keyed by the
// packet's flow, so hashing each flow to one of N shards keeps per-flow
// order while spreading the work. The front end stays thin — header
// scan, capture filter, shard hash — and hands each shard batches of
// copied frames over a bounded channel; the shard goroutine decodes.
//
// The cross-flow stages cannot be sharded. Shards log a compact
// observation per media packet into pooled chunks, tagged with the front
// end's sequence number, and one reconciliation goroutine replays the
// logs in global capture order (a k-way merge). The logs reach it in
// cuts: every reconEvery packets the front end queues a cut marker behind
// each shard's batches and goes on; each shard answers with its chain of
// everything before the marker, and the reconciler merges one cut's
// chains while the shards and the front end carry on. A quiesce —
// Snapshot, Checkpoint, ApplyDelta, Rotate, DrainFeatures, Streams,
// Finish — is a cut plus a wait for its replay; on return every shard and
// the reconciliation state are the caller's until more work is
// dispatched. The consumers are deterministic in observation order, so
// the merged result is byte-identical to the sequential engine's.

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"zoomlens/internal/obs"
	"zoomlens/internal/statecodec"
)

const (
	// shardBatchSize and shardBatchBytes bound a batch: the front end
	// hands a shard its batch at shardBatchSize packets or before the
	// frame that would take it past shardBatchBytes of frame data,
	// whichever comes first. A frame larger than shardBatchBytes travels
	// alone. The byte cap is what bounds the copies in flight: 256 frames
	// of the campus capture's 647-byte mean would be 166 KB a batch, and
	// of jumbo frames 2.3 MB.
	shardBatchSize  = 256
	shardBatchBytes = 64 << 10
	// shardQueueDepth is the capacity of each shard's batch channel: deep
	// enough that a shard stays busy while the front end fills the next
	// batch, shallow enough that a full queue blocks the front end
	// (backpressure) with at most shardQueueDepth × 64 KiB of frames
	// queued per shard. The hand-off is amortised over a batch, so the
	// batching, not the queue behind it, is what the throughput depends
	// on.
	shardQueueDepth = 4
	// reconEvery is the periodic cut cadence in packets: even a run that
	// never snapshots or checkpoints hands the shard observation logs to
	// the reconciler (which recycles their chunks) this often, so the logs
	// hold at most about (cutQueueDepth+2) × reconEvery packets'
	// observations (56 bytes each, ~2.6 MiB) however long the run.
	// Measured with the reconciler on the 400 k-packet campus capture at
	// two workers (DESIGN §5): of 2^14 / 2^15 / 2^16, 2^14 is the
	// smallest and no slower.
	reconEvery = 1 << 14
	// cutQueueDepth is how many cuts may wait for the reconciler behind
	// the one it is replaying. A full cut queue blocks the front end, so
	// a reconciler that falls behind slows ingest instead of letting the
	// logs grow. Depths 1 and 2 measured level (DESIGN §5); 1 bounds the
	// logs tighter.
	cutQueueDepth = 1
)

// pbatch is one unit of work handed to a shard: frames copied
// back-to-back into data (at most shardBatchBytes of them, unless one
// frame alone is larger), with per-packet offsets in items. A batch with
// cut set is a cut marker and carries no packets: the shard sends its
// observation chain — everything it logged for the batches queued before
// the marker — on cut and starts a new one. After a stamped batch's frames
// (evict) the shard evicts what is idle since cutoff. Batches are pooled.
type pbatch struct {
	items  []pitem
	data   []byte
	cut    chan<- *obsChunk
	evict  bool
	cutoff time.Time
}

// pitem is one packet within a batch: the capture metadata and the
// frame's offsets into the batch buffer.
type pitem struct {
	seq      uint64
	at       time.Time
	off, end int32
}

// cut is one hand-over point in the packet stream, as the reconciler
// receives it: every shard sends one chain on chains, and quiesce asks
// the reconciler to report on idle once the cut is replayed.
type cut struct {
	chains  chan *obsChunk
	quiesce bool
}

// reconciler is a queue-fed pipeline's reconciliation goroutine as the
// front end sees it. Between quiesce points the goroutine owns
// reconState; the front end only hands it cuts.
type reconciler struct {
	cuts chan cut      // bounded: cutQueueDepth
	idle chan struct{} // one send per replayed quiesce cut
	done chan struct{} // closed when the goroutine exits

	// backlog counts cuts handed over and not yet replayed; stallMS the
	// time the front end waited on a full cut queue or a quiesce (nil
	// handles without a registry). stalled is stallMS's unrounded source.
	backlog *obs.Gauge
	stallMS *obs.Counter
	stalled time.Duration
}

// ParallelAnalyzer is the sharded multi-core engine: one front-end
// goroutine (the caller's), one goroutine per shard and one
// reconciliation goroutine. Feed packets in capture order via Packet (or
// a whole file via ReadPCAP), call Finish once, then read results via
// Result(), which returns the merged *Analyzer. Results are
// byte-identical to the sequential Analyzer at any worker count; with one
// worker it is the sequential engine (one inline shard, no goroutine, no
// frame copy). Memory is bounded by queue backpressure.
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
		sh.depth = cfg.Obs.Gauge("zoomlens_shard_queue_depth", "Batches queued per shard.", obs.L("shard", label))
		p.shards[i] = sh
		go sh.run()
	}
	rc := &reconciler{cuts: make(chan cut, cutQueueDepth), idle: make(chan struct{}, 1), done: make(chan struct{}),
		backlog: cfg.Obs.Gauge("zoomlens_reconcile_backlog_cuts", "Cuts handed to the reconciliation goroutine and not yet replayed."),
		stallMS: cfg.Obs.Counter("zoomlens_reconcile_stall_ms_total", "Time the front end waited on a full cut queue or for a quiesce."),
	}
	p.recon = rc
	go p.reconcile(rc)
	return &ParallelAnalyzer{p}
}

// run is a queue-fed shard's goroutine: drain batches until the queue
// closes. frames counts what it processed, for the live-refresh cadence.
func (sh *shard) run() {
	defer close(sh.done)
	var frames uint64
	for b := range sh.queue {
		// Consumer-side backlog update: the front end only writes the
		// gauge on enqueue, so without this an idle shard would report its
		// last backlog forever.
		sh.depth.Set(int64(len(sh.queue)))
		if b.cut != nil {
			b.cut <- sh.obsHead
			sh.obsHead, sh.obsTail = nil, nil
			putBatch(b)
			continue
		}
		for i := range b.items {
			it := &b.items[i]
			sh.process(it.seq, it.at, b.data[it.off:it.end])
			if frames++; sh.so.on() && frames%obsUpdateEvery == 0 {
				sh.so.push()
				sh.refreshGauges()
			}
		}
		if b.evict {
			sh.EvictIdle(b.cutoff)
		}
		putBatch(b)
	}
}

// obsChunkLen is the number of media observations per pooled chunk.
// Chunks are recycled as soon as the reconciler replays them, so the
// log footprint is what the shards logged since the oldest cut not yet
// replayed.
const obsChunkLen = 512

// obsChunk is one fixed-size segment of a shard's media-observation log,
// chained oldest-first. The owning shard goroutine appends; at a cut
// marker it sends the whole chain to the reconciler, which replays and
// recycles it (the send is the happens-before edge).
type obsChunk struct {
	next *obsChunk
	n    int
	e    [obsChunkLen]mediaObs
}

var obsChunkPool = sync.Pool{New: func() any { return new(obsChunk) }}

func getObsChunk() *obsChunk { return obsChunkPool.Get().(*obsChunk) }

func putObsChunk(c *obsChunk) {
	c.n = 0
	c.next = nil
	obsChunkPool.Put(c)
}

// logObs is a queue-fed shard's sink: append to the pending chain.
func (sh *shard) logObs(o *mediaObs) {
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

// dispatch is the queue-fed half of deliver: batch a kept frame for its
// shard, stamp a due eviction on every shard's batch (an empty one if need
// be) and ship it, so each sweeps after exactly the frames routed to it
// before, and cut on the periodic cadence.
func (p *pipeline) dispatch(sh *shard, keep bool, seq uint64, at time.Time, frame []byte) {
	if keep {
		if sh.cur != nil && len(sh.cur.data)+len(frame) > shardBatchBytes {
			p.ship(sh)
		}
		if sh.cur == nil {
			sh.cur = getBatch()
		}
		b := sh.cur
		if b.data == nil {
			// Room for a whole batch up front, so it never regrows past
			// what putBatch keeps.
			b.items, b.data = make([]pitem, 0, shardBatchSize), make([]byte, 0, shardBatchBytes)
		}
		off := int32(len(b.data))
		b.data = append(b.data, frame...)
		b.items = append(b.items, pitem{seq: seq, at: at, off: off, end: int32(len(b.data))})
		if len(b.items) >= shardBatchSize {
			p.ship(sh)
		}
	}
	if p.evictDue() {
		for _, s := range p.shards {
			if s.cur == nil {
				s.cur = getBatch()
			}
			s.cur.evict, s.cur.cutoff = true, at.Add(-p.cfg.FlowTTL)
			p.ship(s)
		}
	}
	if seq%reconEvery == 0 {
		p.cut(false)
	}
}

// ship hands a batch to its shard: blocking on a full queue, or — under
// Config.Shed — dropping it with accounting instead of stalling ingest
// (live capture would otherwise lose packets invisibly in the kernel); a
// shed stamp goes with it, and the next one sweeps what it would have.
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
			p.o.push()
			putBatch(b)
			return
		}
	}
	// Producer-side backlog sample; the shard updates the same gauge on
	// dequeue, so it tracks both directions.
	sh.depth.Set(int64(len(sh.queue)))
}

// cut hands everything routed so far to the reconciler without waiting
// for it: each shard's partial batch is flushed and a marker queued
// behind it, and the cut joins the reconciler's bounded queue (blocking
// while it is full). A cut marker is never shed: under Config.Shed a
// periodic cut that would block — a full shard queue or a full cut queue
// — is skipped instead, and the logs wait for the next one.
func (p *pipeline) cut(quiesce bool) {
	rc := p.recon
	if p.cfg.Shed && !quiesce && !p.cutFits() {
		return
	}
	c := cut{chains: make(chan *obsChunk, len(p.shards)), quiesce: quiesce}
	for _, sh := range p.shards {
		if sh.cur != nil {
			sh.queue <- sh.cur
			sh.cur = nil
		}
		b := getBatch()
		b.cut = c.chains
		sh.queue <- b
	}
	rc.backlog.Add(1)
	select {
	case rc.cuts <- c:
	default:
		rc.timed(func() { rc.cuts <- c })
	}
}

// cutFits reports whether a cut can be queued without blocking: the front
// end is the only producer on every queue involved, so free slots seen
// here can only grow before it uses them.
func (p *pipeline) cutFits() bool {
	if len(p.recon.cuts) == cap(p.recon.cuts) {
		return false
	}
	for _, sh := range p.shards {
		need := 1
		if sh.cur != nil {
			need = 2
		}
		if cap(sh.queue)-len(sh.queue) < need {
			return false
		}
	}
	return true
}

// quiesce rests the pipeline and refreshes the live series there.
func (p *pipeline) quiesce() {
	p.rest()
	p.updateGauges()
}

// rest brings a queue-fed pipeline to rest at the current packet: a cut,
// then a wait for the reconciler to replay it. On return every shard has
// drained its queue and every observation is replayed; the chain of
// channel operations (marker → shard → chain → reconciler → idle) is the
// happens-before edge that makes shard state and reconState the caller's
// to read and write until more work is dispatched. An inline pipeline is
// always at rest.
func (p *pipeline) rest() {
	if !p.queueFed() {
		return
	}
	p.cut(true)
	p.recon.timed(func() { <-p.recon.idle })
	for _, sh := range p.shards {
		// Every queue is drained; report the quiesced backlog explicitly
		// (the shard-side update raced the last enqueue sample).
		sh.depth.Set(0)
	}
}

// timed runs a blocking hand-over, adding the wait to the stall counter
// when one is registered.
func (rc *reconciler) timed(wait func()) {
	if rc.stallMS == nil {
		wait()
		return
	}
	t0 := time.Now()
	wait()
	ms := rc.stalled.Milliseconds()
	rc.stalled += time.Since(t0)
	rc.stallMS.Add(uint64(rc.stalled.Milliseconds() - ms))
}

// reconcile is the reconciliation goroutine: for each cut, in order,
// collect one chain per shard and replay them. It exits when stop closes
// the cut queue, after replaying what was queued.
func (p *pipeline) reconcile(rc *reconciler) {
	defer close(rc.done)
	chains := make([]*obsChunk, len(p.shards))
	observe := p.observe
	for c := range rc.cuts {
		for i := range chains {
			chains[i] = <-c.chains
		}
		replay(chains, observe)
		rc.backlog.Add(-1)
		if c.quiesce {
			rc.idle <- struct{}{}
		}
	}
}

// replay feeds one cut's chains — each already in sequence order, since a
// shard consumes its queue FIFO — to observe in global capture order (a
// k-way merge by sequence number), then recycles the chunks.
func replay(chains []*obsChunk, observe func(*mediaObs)) {
	type cursor struct {
		c *obsChunk
		i int
	}
	cur := make([]cursor, len(chains))
	for si, c := range chains {
		cur[si] = cursor{c: c}
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
		observe(&cur[best].c.e[cur[best].i])
		cur[best].i++
	}
	for _, c := range chains {
		for c != nil {
			nc := c.next
			putObsChunk(c)
			c = nc
		}
	}
}

// stop closes every queue, waits for the shard goroutines to exit, then
// closes the cut queue and waits for the reconciler, which replays the
// cuts still queued first. Afterwards every piece of state belongs to the
// caller's goroutine. Batches under construction and observations logged
// after the last cut are dropped: collapse quiesces first, and Discard
// wants none of it.
func (p *pipeline) stop() {
	for _, sh := range p.shards {
		close(sh.queue)
	}
	for _, sh := range p.shards {
		<-sh.done
		sh.depth.Set(0)
	}
	close(p.recon.cuts)
	<-p.recon.done
}

// checkShards runs after every restore and delta apply. It refuses a
// stream or TCP tracker on a shard the flow hash does not send it to (a
// checkpoint from a build with another shardOf or other Zoom networks):
// its flow's next packets would open a second record elsewhere. It
// refuses an archive that is not exactly the streams its flow table
// evicted (conserveStreams). Then it refuses tallies that do not
// conserve packets.
func (p *pipeline) checkShards() error {
	zoom := p.filter.ZoomNetworks()
	for i, sh := range p.shards {
		if archived, evicted := sh.conserveStreams(); archived != evicted {
			return fmt.Errorf("%w: shard %d archives %d streams but its flow table evicted %d", statecodec.ErrCorrupt, i, archived, evicted)
		}
		for id := range sh.StreamMetrics {
			f := id.Flow
			if shardOf(zoom, p.n, false, f.Src, f.Dst, f.SrcPort, f.DstPort) != i {
				return fmt.Errorf("%w: shard %d of %d holds stream %v, which this build's flow hash routes elsewhere", statecodec.ErrCorrupt, i, p.n, f)
			}
		}
		for c := range sh.TCP {
			// Source and destination both the client: shardOf takes it as the client.
			if shardOf(zoom, p.n, true, c.Addr(), c.Addr(), c.Port(), c.Port()) != i {
				return fmt.Errorf("%w: shard %d of %d holds the TCP tracker of %v, which this build's flow hash routes elsewhere", statecodec.ErrCorrupt, i, p.n, c)
			}
		}
	}
	if gap, panics := p.AccountingGap(); gap < 0 || uint64(gap) > panics {
		return fmt.Errorf("%w: %d frames in but %d in terminal buckets, a gap outside [0, %d shard panics]", statecodec.ErrCorrupt, p.Packets, int64(p.Packets)-gap, panics)
	}
	return nil
}

// collapse is Finish's first half for a queue-fed pipeline: quiesce,
// stop the shards and the reconciler, and fold the shards' state into
// one inline shard. An inline pipeline is already collapsed.
func (p *pipeline) collapse() {
	if !p.queueFed() {
		return
	}
	defer p.cfg.trace("merge")()
	p.quiesce()
	p.stop()
	// The quiesce pushed every tally; the merged shard holds the same ones
	// and its gauges would repeat the per-shard series, so it feeds none.
	p.o = noObs
	p.setInline(mergeShards(p.cfg, p.shards))
}
