package core

// Multi-process cluster support: the same three parts as the in-process
// engines, one process each.
//
//   - The splitter process runs the front end (Router): capture filter,
//     shard hash, head counters, exactly as ahead of in-process shards.
//     It forwards each kept frame whole to the owning worker's pcapng
//     stream, stamped with the global sequence number.
//   - A worker process is a sequential Analyzer run with
//     Config.PreFiltered (the splitter already filtered): its inline
//     shard is the worker's shard, fed through IngestSeq, with
//     SetClusterSink swapping the shard's sink from the local
//     reconciliation consumer to the ZLOB observation log. Its
//     checkpoint, written before Finish, is the exportable shard state.
//   - The aggregator process runs the reconciliation consumer
//     (MergeCluster): the k-way merged worker logs replayed in sequence
//     order, the restored worker shards folded into one, under the
//     splitter's head counters.
//
// The invariant carries over unchanged: the merged analyzer is
// byte-identical to a sequential run over the same capture.

import (
	"errors"
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/layers"
	"zoomlens/internal/zoom"
)

// ClusterObs is one media-stream observation as it leaves the process:
// the record a cluster worker's ZLOB log carries and the aggregator
// replays. It names its stream by key, since the consumer is another
// process's; inside a process the same observation is a mediaObs.
type ClusterObs struct {
	// Seq is the front end's global capture sequence number of the
	// packet; logs from several shards are replayed in Seq order.
	Seq  uint64
	At   time.Time
	Flow layers.FiveTuple
	Key  zoom.StreamKey
	// WireLen/PayloadLen are the packet sizes the feature windower
	// consumes.
	WireLen    int
	PayloadLen int
	PT         uint8
	RTPSeq     uint16
	RTPTS      uint32
}

// SetClusterSink diverts the engine's media observations to sink instead
// of its local reconciliation consumer, for the aggregator to replay
// globally. Only a sequential engine can export: a multi-shard engine
// already owns an in-process reconciliation, and nesting it under a
// second, cross-process one is not supported — cluster workers run with
// -workers 1.
func (p *pipeline) SetClusterSink(sink func(ClusterObs)) error {
	if p.queueFed() {
		return errors.New("core: cluster observation export requires a sequential engine (workers=1)")
	}
	// The consumer is another process's: it gets the stream by key.
	p.shards[0].sink = func(o *mediaObs) {
		id := &o.own.id
		sink(ClusterObs{
			Seq: o.Seq, At: o.At, Flow: id.Flow, Key: id.Key,
			WireLen: int(o.WireLen), PayloadLen: int(o.PayloadLen),
			PT: o.PT, RTPSeq: o.RTPSeq, RTPTS: o.RTPTS,
		})
	}
	return nil
}

// ClusterHead is the head-counter struct: what the front end counts
// about the capture as a whole, before any per-flow work. Every engine
// embeds one; a cluster carries the splitter's across the process
// boundary in the split manifest, under the JSON keys below. Per-flow
// tallies (decode counts, TCP/STUN tallies, evictions) live in the
// shards and are summed from them instead.
type ClusterHead struct {
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
	// Undecodable counts frames the L2–L4 parser rejected (payloads no
	// protocol plugin could decode are a shard's ProtoUndecodable) and, in
	// a cluster merge, frames the splitter could not forward.
	Undecodable     uint64 `json:"undecodable"`
	DroppedByFilter uint64 `json:"dropped_by_filter"`
	// PanicsRecovered counts frames whose routing panicked and was
	// contained (panics in per-flow processing are a shard's
	// ShardPanics); each was quarantined when a Quarantine is configured.
	PanicsRecovered uint64 `json:"panics_recovered"`
	// ShedPackets/ShedBytes count packets dropped by overload shedding
	// (Config.Shed) instead of being analyzed. Only queue-fed engines
	// shed, so a splitter's manifest never carries them.
	ShedPackets uint64 `json:"shed_packets,omitempty"`
	ShedBytes   uint64 `json:"shed_bytes,omitempty"`
	// Truncated reports that the capture was cut mid-record: everything
	// up to the cut was analyzed and the results are valid partial
	// results.
	Truncated bool      `json:"truncated"`
	FirstTS   time.Time `json:"first_ts"`
	LastTS    time.Time `json:"last_ts"`
}

// Router is the front end on its own, for the splitter process: it
// classifies each frame and names the worker shard the frame belongs to.
type Router struct {
	frontEnd
}

// NewRouter builds a router over n worker shards.
func NewRouter(cfg Config, n int) *Router {
	if n < 1 {
		n = 1
	}
	return &Router{newFrontEnd(cfg, n)}
}

// Route classifies one frame: shard is the worker it belongs to and
// keep reports whether it should be forwarded at all (undecodable and
// filter-dropped frames are counted and never forwarded, as are frames
// whose classification panics). Packets, the count of frames offered so
// far, is the sequence number to stamp on a forwarded frame.
func (r *Router) Route(at time.Time, frame []byte) (shard int, keep bool) {
	defer func() {
		if p := recover(); p != nil {
			r.contain(p, at, frame)
			shard, keep = 0, false
		}
	}()
	return r.route(at, frame, r.seq+1)
}

// Head snapshots the head counters for the split manifest.
func (r *Router) Head(truncated bool) ClusterHead {
	h := r.ClusterHead
	h.Truncated = truncated
	return h
}

// MergeCluster combines restored worker states into one sequential-
// equivalent analyzer: head supplies the splitter's head counters, next
// yields the k-way merged worker observation logs in global capture
// (Seq) order, and parts are the restored per-worker analyzers. The
// returned analyzer has NOT been finished — callers either Finish it to
// read the report or Checkpoint it first to keep the merged state
// portable (checkpoints always capture pre-Finish state).
func MergeCluster(cfg Config, parts []*Analyzer, head ClusterHead, next func() (ClusterObs, bool)) *Analyzer {
	cfg.Obs = nil // the workers already fed the live metrics
	p := newPipeline(cfg, 1)
	// The logs name streams by key: each observation gets an owner of its
	// own, whose empty handle has the detector find the record by key.
	var own streamOwner
	for o, ok := next(); ok; o, ok = next() {
		own = streamOwner{id: flow.MediaStreamID{Flow: o.Flow, Key: o.Key}}
		p.observe(&mediaObs{
			Seq: o.Seq, At: o.At, own: &own,
			WireLen: uint32(o.WireLen), PayloadLen: uint32(o.PayloadLen),
			PT: o.PT, RTPSeq: o.RTPSeq, RTPTS: o.RTPTS,
		})
	}
	shards := make([]*shard, len(parts))
	for i, a := range parts {
		shards[i] = a.shard
		// Whatever a worker's own front end counted beyond the splitter's
		// view (nothing, unless its stream was damaged in transit) still
		// belongs in the totals.
		head.Undecodable += a.Undecodable
		head.PanicsRecovered += a.PanicsRecovered
	}
	p.ClusterHead = head
	return p.setInline(mergeShards(p.cfg, shards))
}
