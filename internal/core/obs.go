package core

import (
	"zoomlens/internal/metrics"
	"zoomlens/internal/obs"
	"zoomlens/internal/rtcproto"
)

// This file binds the analyzer to the live observability layer
// (internal/obs). A nil Config.Obs keeps every hook a single branch (the
// nil check inside the obs handle it calls); with a registry configured
// the pipeline maintains:
//
//   - per-decode-stage packet counters (the live Table 2 view),
//   - state-table occupancy gauges against the PR 2 bounded-state caps
//     (labeled per shard in parallel mode),
//   - eviction / rejection / panic counters, and
//   - a snapshot counter.
//
// Counters that aggregate across shards (stage counts, panics,
// evictions) are registered unlabeled and shared — every shard adds to
// the same atomic. Occupancy and cap gauges are per-shard, since shard
// tables partition the state.

// obsUpdateEvery is the packet cadence for refreshing occupancy gauges.
const obsUpdateEvery = 2048

// coreObs holds one set of registered metric handles: the engine's (and
// its inline shard's), or one queue-fed shard's. The zero coreObs is
// inert — its handles are nil, which every obs handle method accepts,
// and its nil maps read as nil handles — so the packet path calls the
// handles directly and only the periodic gauge refreshes ask on().
type coreObs struct {
	packets *obs.Counter
	bytes   *obs.Counter

	stageUndecodable *obs.Counter
	stageFiltered    *obs.Counter
	stageSTUN        *obs.Counter
	stageTCP         *obs.Counter
	stageZoomUDP     *obs.Counter
	stageMedia       *obs.Counter

	// protoDecoded counts decoded media packets per protocol plugin
	// (indexed by rtcproto.ID); protoUndecodable counts kept UDP
	// payloads no plugin decoded.
	protoDecoded     [rtcproto.NumIDs]*obs.Counter
	protoUndecodable *obs.Counter

	panics    *obs.Counter
	snapshots *obs.Counter

	shedPackets *obs.Counter
	shedBytes   *obs.Counter

	evicted  map[string]*obs.Counter // kind → counter (shared)
	rejected map[string]*obs.Counter // reason → counter (shared)
	occ      map[string]*obs.Gauge   // table → gauge (per shard)
	caps     map[string]*obs.Gauge   // table → cap gauge (per shard)

	// prev tracks this analyzer's cumulative eviction/rejection counts so
	// the shared counters receive deltas, not double-counted totals.
	prev map[*obs.Counter]uint64
}

// stateTables are the occupancy/cap gauge dimensions; shardTables are
// the ones a shard owns (the other two are cross-flow state).
var (
	stateTables = []string{"flows", "streams", "tcp", "dedup_streams", "copy_pending", "finished"}
	shardTables = [4]string{"flows", "streams", "tcp", "finished"}
)

// noObs is the inert handle set of an engine without a registry. It is
// shared: nothing ever writes to it.
var noObs = new(coreObs)

// on reports whether o holds registered handles.
func (o *coreObs) on() bool { return o.prev != nil }

// newCoreObs registers one set of metric handles; shard is the shard
// label ("" for the engine's own, unlabeled handles).
func newCoreObs(reg *obs.Registry, shard string, cfg Config) *coreObs {
	if reg == nil {
		return noObs
	}
	shardLbl := func(extra ...obs.Label) []obs.Label {
		if shard == "" {
			return extra
		}
		return append(extra, obs.L("shard", shard))
	}
	o := &coreObs{
		packets: reg.Counter("zoomlens_packets_total", "Frames ingested by the analyzer."),
		bytes:   reg.Counter("zoomlens_bytes_total", "Wire bytes ingested by the analyzer."),

		stageUndecodable: reg.Counter("zoomlens_decode_stage_packets_total", "Packets per decode stage.", obs.L("stage", "undecodable")),
		stageFiltered:    reg.Counter("zoomlens_decode_stage_packets_total", "Packets per decode stage.", obs.L("stage", "filtered")),
		stageSTUN:        reg.Counter("zoomlens_decode_stage_packets_total", "Packets per decode stage.", obs.L("stage", "stun")),
		stageTCP:         reg.Counter("zoomlens_decode_stage_packets_total", "Packets per decode stage.", obs.L("stage", "tcp")),
		stageZoomUDP:     reg.Counter("zoomlens_decode_stage_packets_total", "Packets per decode stage.", obs.L("stage", "zoom_udp")),
		stageMedia:       reg.Counter("zoomlens_decode_stage_packets_total", "Packets per decode stage.", obs.L("stage", "media")),

		protoUndecodable: reg.Counter("zoomlens_proto_undecodable_total", "Kept UDP payloads no protocol plugin decoded."),

		panics:    reg.Counter("zoomlens_panics_recovered_total", "Packets whose processing panicked and was quarantined."),
		snapshots: reg.Counter("zoomlens_snapshots_total", "QoE snapshots taken."),

		shedPackets: reg.Counter("zoomlens_shed_packets_total", "Packets dropped at full shard queues under overload shedding."),
		shedBytes:   reg.Counter("zoomlens_shed_bytes_total", "Wire bytes dropped at full shard queues under overload shedding."),

		evicted:  make(map[string]*obs.Counter),
		rejected: make(map[string]*obs.Counter),
		occ:      make(map[string]*obs.Gauge),
		caps:     make(map[string]*obs.Gauge),
		prev:     make(map[*obs.Counter]uint64),
	}
	for id := rtcproto.ID(0); id < rtcproto.NumIDs; id++ {
		o.protoDecoded[id] = reg.Counter("zoomlens_proto_decoded_total", "Decoded media packets per protocol plugin.", obs.L("proto", id.String()))
	}
	for _, kind := range []string{"flows", "streams", "tcp", "archived"} {
		o.evicted[kind] = reg.Counter("zoomlens_evicted_total", "State entries evicted by idle TTL.", obs.L("kind", kind))
	}
	for _, reason := range []string{"flow", "stream", "substream", "tcp"} {
		o.rejected[reason] = reg.Counter("zoomlens_rejected_packets_total", "Packets refused new state at a hard cap.", obs.L("reason", reason))
	}
	for _, table := range stateTables {
		o.occ[table] = reg.Gauge("zoomlens_state_occupancy", "Live entries per state table.", shardLbl(obs.L("table", table))...)
		o.caps[table] = reg.Gauge("zoomlens_state_cap", "Configured cap per state table (0 = unlimited).", shardLbl(obs.L("table", table))...)
	}
	o.caps["flows"].Set(int64(cfg.MaxFlows))
	o.caps["streams"].Set(int64(cfg.MaxStreams))
	o.caps["tcp"].Set(int64(cfg.maxTCP()))
	o.caps["dedup_streams"].Set(int64(cfg.MaxMeetingStreams))
	cp := effectiveMaxCopyPending(cfg)
	if cp == 0 {
		cp = metrics.DefaultMaxPending
	}
	o.caps["copy_pending"].Set(int64(cp))
	o.caps["finished"].Set(int64(cfg.MaxFinished))
	return o
}

// mirror feeds a shared counter the delta between this analyzer's
// cumulative count and what it last pushed, so shard analyzers can all
// mirror into one counter without double counting.
func (o *coreObs) mirror(c *obs.Counter, cur uint64) {
	if d := cur - o.prev[c]; d > 0 {
		c.Add(d)
		o.prev[c] = cur
	}
}

// resetMirrors clears the delta baselines. Rotate re-seeds the
// analyzer's cumulative counters back to zero; without a baseline reset
// the next mirror would compute cur-prev on uint64s and wrap.
func (o *coreObs) resetMirrors() {
	for c := range o.prev {
		delete(o.prev, c)
	}
}

// refreshGauges updates the shard's occupancy gauges and its
// eviction/rejection mirrors, returning the occupancies in shardTables
// order. A queue-fed shard calls it on a
// packet-count cadence from its own goroutine.
func (sh *shard) refreshGauges() (occ [4]int64) {
	tot := sh.Flows.Totals()
	occ = [4]int64{int64(tot.Flows), int64(tot.Streams), int64(len(sh.TCP)), int64(len(sh.Finished))}
	o := sh.so
	if !o.on() {
		return occ
	}
	for i, table := range shardTables {
		o.occ[table].Set(occ[i])
	}
	ev := sh.Flows.Evictions()
	o.mirror(o.rejected["flow"], ev.RejectedFlowPackets)
	o.mirror(o.rejected["stream"], ev.RejectedStreamPackets)
	o.mirror(o.rejected["substream"], ev.RejectedSubstreamPackets)
	o.mirror(o.rejected["tcp"], sh.RejectedTCPPackets)
	o.mirror(o.evicted["flows"], ev.EvictedFlows)
	o.mirror(o.evicted["streams"], ev.EvictedStreams)
	o.mirror(o.evicted["tcp"], sh.EvictedTCP)
	o.mirror(o.evicted["archived"], uint64(len(sh.Finished))+sh.FinishedDropped)
	return occ
}

// updateGauges refreshes every shard's gauges and the unlabeled ones:
// cross-shard occupancy totals plus the cross-flow tables. Valid inline
// or while reconciled; an inline engine calls it on a packet-count
// cadence, every engine at each snapshot and at Finish.
func (p *pipeline) updateGauges() {
	if !p.o.on() {
		return
	}
	var sum [4]int64
	for _, sh := range p.shards {
		for i, v := range sh.refreshGauges() {
			sum[i] += v
		}
	}
	for i, table := range shardTables {
		p.o.occ[table].Set(sum[i])
	}
	p.o.occ["dedup_streams"].Set(int64(p.Dedup.Len()))
	p.o.occ["copy_pending"].Set(int64(p.Copies.Pending()))
}
