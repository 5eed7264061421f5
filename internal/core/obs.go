package core

import (
	"cmp"

	"zoomlens/internal/metrics"
	"zoomlens/internal/obs"
	"zoomlens/internal/rtcproto"
)

// obsUpdateEvery is the frame cadence of a live-metric refresh between
// quiesce points. The engine's tallies (ClusterHead, shardCounters, the
// flow table's eviction stats) are the one count of what became of a
// frame and the packet path touches no live counter (internal/obs): the
// goroutine that owns a tally pushes it every obsUpdateEvery frames, and
// every quiesce, Finish, contained panic and shed batch pushes too.
const obsUpdateEvery = 2048

// coreObs holds one set of registered metric handles and its (series,
// tally) pairs, each with its own baseline, so that the front end and
// every shard can feed one shared series: the engine's set (and its inline
// shard's), or a queue-fed shard's, with shard-labeled gauges.
type coreObs struct {
	reg       *obs.Registry
	feeds     []feed
	snapshots *obs.Counter
	gap       *obs.Gauge            // the engine's set only: AccountingGap
	occ       map[string]*obs.Gauge // table → occupancy gauge
}

// feed is one (live series, engine tally) pair: push adds to the series
// what the tally gained since the last push, base.
type feed struct {
	series *obs.Counter
	tally  func() uint64
	base   uint64
}

// shardTables are the occupancy gauges a shard sets (the other two tables
// are cross-flow state).
var shardTables = [4]string{"flows", "streams", "tcp", "finished"}

// noObs is the inert handle set of an engine without a registry. It is
// shared: nothing ever writes to it.
var noObs = new(coreObs)

// on reports whether o holds registered handles.
func (o *coreObs) on() bool { return o.reg != nil }

// newCoreObs registers one set of metric handles; shard is the shard
// label ("" for the engine's own, unlabeled handles). Whoever owns the
// tallies lists the feeds (feedHead, feedShard).
func newCoreObs(reg *obs.Registry, shard string, cfg Config) *coreObs {
	if reg == nil {
		return noObs
	}
	o := &coreObs{reg: reg, snapshots: reg.Counter("zoomlens_snapshots_total", "QoE snapshots taken."), occ: make(map[string]*obs.Gauge)}
	if shard == "" {
		o.gap = reg.Gauge("zoomlens_accounting_gap", "Frames read minus frames in a terminal bucket at the last refresh at rest (0 unless a shard panic struck before its frame was counted).")
	}
	// The archive and the dedup records have no cap of their own (-rotate
	// bounds both), so they get an occupancy gauge and no cap gauge.
	for _, t := range []struct {
		table  string
		cap    int
		capped bool
	}{
		{"flows", cfg.MaxFlows, true}, {"streams", cfg.MaxStreams, true}, {"tcp", cfg.maxTCP(), true},
		{"dedup_streams", 0, false},
		{"copy_pending", cmp.Or(effectiveMaxCopyPending(cfg), metrics.DefaultMaxPending), true},
		{"finished", 0, false},
	} {
		lbl := []obs.Label{obs.L("table", t.table)}
		if shard != "" {
			lbl = append(lbl, obs.L("shard", shard))
		}
		o.occ[t.table] = reg.Gauge("zoomlens_state_occupancy", "Live entries per state table.", lbl...)
		if t.capped {
			reg.Gauge("zoomlens_state_cap", "Configured cap per state table (0 = unlimited).", lbl...).Set(int64(t.cap))
		}
	}
	return o
}

// feed lists one tally as a source of the series name{labels}.
func (o *coreObs) feed(tally func() uint64, name, help string, labels ...obs.Label) {
	if o.on() {
		o.feeds = append(o.feeds, feed{series: o.reg.Counter(name, help, labels...), tally: tally})
	}
}

const (
	stageName, stageHelp = "zoomlens_decode_stage_packets_total", "Packets per decode stage."
	panicName, panicHelp = "zoomlens_panics_recovered_total", "Packets whose processing panicked and was quarantined."
)

// feedHead lists the front end's tallies.
func (o *coreObs) feedHead(h *ClusterHead) {
	o.feed(func() uint64 { return h.Packets }, "zoomlens_packets_total", "Frames ingested by the analyzer.")
	o.feed(func() uint64 { return h.Bytes }, "zoomlens_bytes_total", "Wire bytes ingested by the analyzer.")
	o.feed(func() uint64 { return h.Undecodable }, stageName, stageHelp, obs.L("stage", "undecodable"))
	o.feed(func() uint64 { return h.DroppedByFilter }, stageName, stageHelp, obs.L("stage", "filtered"))
	o.feed(func() uint64 { return h.PanicsRecovered }, panicName, panicHelp)
	o.feed(func() uint64 { return h.ShedPackets }, "zoomlens_shed_packets_total", "Packets dropped at full shard queues under overload shedding.")
	o.feed(func() uint64 { return h.ShedBytes }, "zoomlens_shed_bytes_total", "Wire bytes dropped at full shard queues under overload shedding.")
}

// feedShard lists a shard's tallies, read through sh at every push: a
// Rotate or restore that replaces the shard's state keeps the list.
func (o *coreObs) feedShard(sh *shard) {
	o.feed(func() uint64 { return sh.ProtoUndecodable }, stageName, stageHelp, obs.L("stage", "undecodable"))
	o.feed(func() uint64 { return sh.STUNPackets }, stageName, stageHelp, obs.L("stage", "stun"))
	o.feed(func() uint64 { return sh.TCPPackets }, stageName, stageHelp, obs.L("stage", "tcp"))
	o.feed(func() uint64 { return sh.ZoomUDP }, stageName, stageHelp, obs.L("stage", "zoom_udp"))
	o.feed(func() uint64 { return sh.mediaPackets }, stageName, stageHelp, obs.L("stage", "media"))
	o.feed(func() uint64 { return sh.ProtoUndecodable }, "zoomlens_proto_undecodable_total", "Kept UDP payloads no protocol plugin decoded.")
	o.feed(func() uint64 { return sh.ShardPanics }, panicName, panicHelp)
	for id := rtcproto.ID(0); id < rtcproto.NumIDs; id++ {
		o.feed(func() uint64 { return sh.ProtoDecoded[id] }, "zoomlens_proto_decoded_total", "Decoded media packets per protocol plugin.", obs.L("proto", id.String()))
	}
	const evName, evHelp = "zoomlens_evicted_total", "State entries evicted by idle TTL."
	o.feed(func() uint64 { return sh.Flows.Evictions().EvictedFlows }, evName, evHelp, obs.L("kind", "flows"))
	o.feed(func() uint64 { return sh.Flows.Evictions().EvictedStreams }, evName, evHelp, obs.L("kind", "streams"))
	o.feed(func() uint64 { return sh.EvictedTCP }, evName, evHelp, obs.L("kind", "tcp"))
	o.feed(func() uint64 { return uint64(len(sh.Finished)) }, evName, evHelp, obs.L("kind", "archived"))
	const rejName, rejHelp = "zoomlens_rejected_packets_total", "Packets refused new state at a hard cap."
	o.feed(func() uint64 { return sh.Flows.Evictions().RejectedFlowPackets }, rejName, rejHelp, obs.L("reason", "flow"))
	o.feed(func() uint64 { return sh.Flows.Evictions().RejectedStreamPackets }, rejName, rejHelp, obs.L("reason", "stream"))
	o.feed(func() uint64 { return sh.Flows.Evictions().RejectedSubstreamPackets }, rejName, rejHelp, obs.L("reason", "substream"))
	o.feed(func() uint64 { return sh.RejectedTCPPackets }, rejName, rejHelp, obs.L("reason", "tcp"))
}

// push brings every series up to its tally. Only the goroutine that owns
// the tallies calls it, or the caller at rest.
func (o *coreObs) push() {
	for i := range o.feeds {
		f := &o.feeds[i]
		v := f.tally()
		f.series.Add(v - f.base)
		f.base = v
	}
}

// rebase sets every baseline to its tally: after Rotate re-seeds them, and
// at each checkpoint encode (already pushed) or restore, so a restored
// process's series count its own frames, as counters do across a restart;
// the chain's totals stay in the reports.
func (o *coreObs) rebase() {
	for i := range o.feeds {
		f := &o.feeds[i]
		f.base = f.tally()
	}
}

// refreshGauges sets the shard's occupancy gauges, returning the
// occupancies in shardTables order. A queue-fed shard calls it, after
// pushing its own feeds, on a frame cadence from its own goroutine.
func (sh *shard) refreshGauges() (occ [4]int64) {
	tot := sh.Flows.Totals()
	occ = [4]int64{int64(tot.Flows), int64(tot.Streams), int64(len(sh.TCP)), int64(len(sh.Finished))}
	for i, table := range shardTables {
		sh.so.occ[table].Set(occ[i])
	}
	return occ
}

// updateGauges is the refresh at rest: every feed, every shard's gauges,
// the unlabeled cross-shard totals and cross-flow tables, and the
// accounting gap. An inline engine calls it on a frame cadence, every
// engine at each quiesce and at Finish.
func (p *pipeline) updateGauges() {
	if !p.o.on() {
		return
	}
	p.o.push()
	var sum [4]int64
	for _, sh := range p.shards {
		if sh.so != p.o { // an inline shard's feeds are the engine's
			sh.so.push()
		}
		for i, v := range sh.refreshGauges() {
			sum[i] += v
		}
	}
	for i, table := range shardTables {
		p.o.occ[table].Set(sum[i])
	}
	p.o.occ["dedup_streams"].Set(int64(p.Dedup.Len()))
	p.o.occ["copy_pending"].Set(int64(p.Copies.Pending()))
	gap, _ := p.AccountingGap()
	p.o.gap.Set(gap)
}
