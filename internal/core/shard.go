package core

import (
	"maps"
	"net/netip"
	"slices"
	"time"

	"zoomlens/internal/capture"
	"zoomlens/internal/flow"
	"zoomlens/internal/layers"
	"zoomlens/internal/meeting"
	"zoomlens/internal/metrics"
	"zoomlens/internal/obs"
	"zoomlens/internal/rtcproto"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/stun"
	"zoomlens/internal/tcprtt"
)

// A shard is the per-flow half of the pipeline: everything whose state
// is keyed by the packet's flow — frame decode, the protocol plugin
// chain, the flow table, per-stream metric engines, TCP RTT trackers,
// the archive of finished streams. The front end hashes each flow to one
// shard, so a shard sees all of a flow's packets in capture order and
// shares nothing with its siblings. The same type runs in all three
// deployments; only how frames reach it and where its media observations
// go differ:
//
//   - inline (sequential engine): the front end calls process directly
//     and the sink is the reconciliation consumer itself;
//   - queue-fed (parallel engine): a goroutine drains a bounded channel of
//     frame batches and the sink appends to a chunked log, handed at each
//     cut to the reconciliation goroutine, which replays it in capture
//     order;
//   - cluster worker: an inline shard in its own process, fed by the
//     splitter's pcapng stream, whose sink writes the ZLOB log the
//     aggregator replays.
type shard struct {
	shardState

	// lim is this shard's share of the configuration: the state caps
	// divided across the shards (see scaleLimits).
	lim Config
	// zoom is the Zoom server prefix set: it tells a TCP segment's
	// client end from its server end.
	zoom   *capture.PrefixSet
	protos []rtcproto.Plugin
	dec    layers.Parser
	dpkt   layers.Packet
	// rec is the one record of the packet in hand: the plugin decodes into
	// rec.Z, Flows.Observe reads the whole (and copies what it keeps), the
	// metric engine reads rec.Z again. Its slices borrow the frame, which
	// is the front end's to reuse once process returns. obs is the reused
	// media observation handed to sink.
	rec flow.Record
	obs mediaObs
	// so holds this shard's live-metric handles and tallies' feeds: the
	// engine's own set when inline, a shard-labeled one when queue-fed.
	so *coreObs

	// sink receives every media-stream observation, tagged with the
	// packet's global sequence number. Stream unification, RTP copy
	// matching and feature windows correlate packets across flows, so
	// they cannot live in a shard. The observation is the shard's to
	// reuse once sink returns.
	sink func(*mediaObs)
	// panicHook, when set, runs inside process's recover scope before
	// the decode. Tests inject deterministic panics through it.
	panicHook func(at time.Time, frame []byte)

	// Queue transport (nil on an inline shard): the batch under
	// construction is owned by the front-end goroutine, the pending
	// observation chain is appended by the shard goroutine and handed to
	// the reconciler at each cut marker.
	queue            chan *pbatch
	done             chan struct{}
	cur              *pbatch
	depth            *obs.Gauge
	obsHead, obsTail *obsChunk
}

// shardCounters are the packet tallies a shard keeps; merged results sum
// them across shards, Summary reports them (with the head counters'
// share of undecodable frames and panics), and the live series mirror
// them. A kept frame ends in one of TCPPackets, STUNPackets,
// UDPKeptPackets (decoded or not: the Table 2/3 denominators) and
// transportless (AccountingGap).
type shardCounters struct {
	TCPPackets  uint64
	STUNPackets uint64
	// STUNPortNonSTUN counts packets on the STUN port whose payload lacks
	// STUN framing: they go on to the protocol decoders.
	STUNPortNonSTUN uint64
	// ProtoDecoded counts decoded media packets per protocol plugin,
	// indexed by rtcproto.ID; ProtoUndecodable counts kept UDP payloads
	// no plugin decoded.
	ProtoDecoded     [rtcproto.NumIDs]uint64
	ProtoUndecodable uint64
	UDPKeptPackets   uint64
	UDPKeptBytes     uint64
	// ShardPanics counts contained panics in per-flow processing.
	ShardPanics uint64
	// EvictedTCP and RejectedTCPPackets are the TCP-tracker counterparts
	// of the flow table's eviction stats.
	EvictedTCP         uint64
	RejectedTCPPackets uint64
	// transportless counts kept frames with no transport header (a
	// non-first fragment, or another IP protocol under
	// Config.PreFiltered); mediaPackets counts decoded media packets,
	// whether or not a state cap then refused them. No report reads them.
	transportless uint64
	mediaPackets  uint64
}

func (c *shardCounters) add(o *shardCounters) {
	c.TCPPackets += o.TCPPackets
	c.STUNPackets += o.STUNPackets
	c.STUNPortNonSTUN += o.STUNPortNonSTUN
	for i, v := range o.ProtoDecoded {
		c.ProtoDecoded[i] += v
	}
	c.ProtoUndecodable += o.ProtoUndecodable
	c.UDPKeptPackets += o.UDPKeptPackets
	c.UDPKeptBytes += o.UDPKeptBytes
	c.ShardPanics += o.ShardPanics
	c.EvictedTCP += o.EvictedTCP
	c.RejectedTCPPackets += o.RejectedTCPPackets
	c.transportless += o.transportless
	c.mediaPackets += o.mediaPackets
}

// shardState is everything a shard accumulates, apart from its wiring:
// what a checkpoint serializes, what rotation detaches into the window
// report, and what a merge unions.
type shardState struct {
	Flows *flow.Table
	// StreamMetrics lists the metric engine each flow-table stream record
	// owns (per flow+SSRC+type, not per unified stream: SFU copies are
	// analyzed independently, as the paper does). It is derived: kept as
	// engines are made and archived, rebuilt after a decode, never written.
	StreamMetrics map[flow.MediaStreamID]*metrics.StreamMetrics
	// TCP holds one RTT tracker per Zoom control connection, keyed by
	// the client-side endpoint. A tracker keeps its own last-seen time
	// (idle eviction).
	TCP map[netip.AddrPort]*tcprtt.Tracker
	// Finished holds the streams EvictIdle archived: one entry per stream
	// the flow table evicted (checkShards holds the two counts equal).
	Finished []FinishedStream

	shardCounters

	// Delta-checkpoint tracking (see delta.go): ckEpoch counts checkpoints
	// (see streamOwner.touch), tcpLog is the trackers' change log. The
	// archive is append-only, so a delta carries the tail appended since
	// the archive's length at the last checkpoint (ckFinishedLen).
	ckEpoch       uint32
	tcpLog        statecodec.ChangeLog[netip.AddrPort, tcprtt.Tracker]
	ckFinishedLen int
}

func newShardState(lim Config) shardState {
	st := shardState{
		Flows:         flow.NewTable(),
		StreamMetrics: make(map[flow.MediaStreamID]*metrics.StreamMetrics),
		TCP:           make(map[netip.AddrPort]*tcprtt.Tracker),
	}
	limits := flow.Limits{MaxFlows: lim.MaxFlows, MaxStreams: lim.MaxStreams}
	if lim.MaxStreams > 0 {
		limits.MaxSubstreams = maxSubstreams
	}
	st.Flows.SetLimits(limits)
	return st
}

func newShard(lim Config, so *coreObs) *shard {
	sh := &shard{shardState: newShardState(lim), lim: lim, zoom: capture.NewPrefixSet(lim.ZoomNetworks), protos: lim.protos(), so: so}
	so.feedShard(sh)
	return sh
}

// scaleLimits divides the global state caps across shards: flows hash
// roughly uniformly, so per-shard caps of ceil(cap/shards) keep the
// aggregate close to the configured bound. Zero (unlimited) stays zero.
// The copy-matcher cap stays global: it bounds the cross-flow
// reconciliation state, which is not sharded.
func scaleLimits(cfg Config, shards int) Config {
	div := func(v int) int {
		if v <= 0 {
			return v
		}
		return (v + shards - 1) / shards
	}
	cfg.MaxFlows = div(cfg.MaxFlows)
	cfg.MaxStreams = div(cfg.MaxStreams)
	return cfg
}

// process decodes and analyzes one frame the front end kept. A panic
// anywhere in it is contained — counted, quarantined, the packet
// abandoned — so one hostile frame cannot take down a production tap
// (or, queue-fed, kill the process from a shard goroutine).
func (sh *shard) process(seq uint64, at time.Time, frame []byte) {
	defer func() {
		if r := recover(); r != nil {
			sh.ShardPanics++
			sh.lim.quarantine(sh.so, r, at, frame)
		}
	}()
	if sh.panicHook != nil {
		sh.panicHook(at, frame)
	}
	pkt := &sh.dpkt
	if err := sh.dec.Parse(frame, pkt); err != nil {
		// Unreachable: the front end forwards only frames its scan or its
		// own full parse accepted. Kept for defense in depth, in the
		// bucket of a frame with no transport header to read.
		sh.transportless++
		return
	}
	switch {
	case pkt.HasTCP:
		sh.TCPPackets++
		sh.observeTCP(at, pkt)
	case pkt.HasUDP:
		sh.observeUDP(seq, at, pkt, len(frame))
	default:
		sh.transportless++
	}
}

func (sh *shard) observeTCP(at time.Time, pkt *layers.Packet) {
	fromClient := sh.zoom.Contains(pkt.DstAddr()) && !sh.zoom.Contains(pkt.SrcAddr())
	var client netip.AddrPort
	if fromClient {
		client = netip.AddrPortFrom(pkt.SrcAddr(), pkt.TCP.SrcPort)
	} else {
		client = netip.AddrPortFrom(pkt.DstAddr(), pkt.TCP.DstPort)
	}
	tr := sh.TCP[client]
	if tr == nil {
		if lim := sh.lim.maxTCP(); lim > 0 && len(sh.TCP) >= lim {
			sh.RejectedTCPPackets++
			return
		}
		tr = &tcprtt.Tracker{Mark: sh.tcpLog.NewMark()}
		sh.TCP[client] = tr
	}
	sh.tcpLog.Touch(&tr.Mark, &client, tr)
	tr.Observe(at, fromClient, &pkt.TCP, len(pkt.Payload))
}

func (sh *shard) observeUDP(seq uint64, at time.Time, pkt *layers.Packet, wireLen int) {
	// Classify STUN by payload framing (magic cookie + length), not by
	// port alone: Zoom P2P sends STUN on the media ports too, and a
	// non-STUN payload that merely lands on port 3478 must not be
	// silently absorbed into STUNPackets.
	if stun.Is(pkt.Payload) {
		sh.STUNPackets++
		return
	}
	if pkt.UDP.SrcPort == stun.Port || pkt.UDP.DstPort == stun.Port {
		// Port-only match: count the mismatch separately and let the
		// packet fall through to the protocol decoders.
		sh.STUNPortNonSTUN++
	}
	sh.UDPKeptPackets++
	sh.UDPKeptBytes += uint64(wireLen)
	// Protocol plugin chain: the first plugin whose Probe accepts the
	// payload claims it — whether or not its DecodeInto then succeeds — so
	// packet ownership is deterministic and independent of decode
	// strictness. Probes are mutually exclusive by construction (Zoom
	// first bytes < 0x80, RTP version bits require 0x80..0xBF).
	rec, zp := &sh.rec, &sh.rec.Z
	var owner rtcproto.Plugin
	for _, p := range sh.protos {
		if p.Probe(pkt.Payload) {
			owner = p
			break
		}
	}
	if owner == nil || owner.DecodeInto(pkt.Payload, zp) != nil {
		sh.ProtoUndecodable++
		return
	}
	proto := owner.ID()
	sh.ProtoDecoded[proto]++
	ft, ok := pkt.FiveTuple()
	if !ok {
		return
	}
	rec.Time, rec.Flow, rec.Proto = at, ft, uint8(proto)
	rec.WireLen, rec.UDPPayloadLen = wireLen, len(pkt.Payload)
	st := sh.Flows.Observe(rec)

	if !zp.IsMedia() {
		return
	}
	sh.mediaPackets++
	if st == nil {
		// The flow table turned the packet away at a state cap (and
		// counted it); skip stream-level state too so caps bound the
		// whole pipeline, not just the table.
		return
	}
	// The stream's record owns its metric engine; StreamMetrics lists it.
	own, _ := st.Owner.(*streamOwner)
	if own == nil {
		own = &streamOwner{sm: metrics.NewStreamMetrics(zp.Media.Type), id: st.ID}
		st.Owner = own
		sh.StreamMetrics[st.ID] = own.sm
	}
	o := &sh.obs
	o.Seq, o.At, o.own = seq, at, own
	o.WireLen, o.PayloadLen = uint32(wireLen), uint32(len(pkt.Payload))
	o.PT, o.RTPSeq, o.RTPTS = zp.RTP.PayloadType, zp.RTP.SequenceNumber, zp.RTP.Timestamp
	sh.sink(o)

	own.touch(sh.ckEpoch)
	own.sm.Observe(at, wireLen, &zp.Media, &zp.RTP)
}

// mediaObs is one media-stream observation as it travels inside a
// process: what a shard hands its sink for every media packet, what a
// queue-fed shard's log holds, and what reconState.observe replays. It
// names its stream by the owner, not by key: every observation of a
// stream points at the one streamOwner, which holds the stream's ID and
// the reconciliation consumer's Dedup handle, so the log pays a pointer
// per packet instead of the 64-byte ID. ClusterObs is its form outside
// the process (SetClusterSink, MergeCluster).
type mediaObs struct {
	// Seq is the front end's global capture sequence number of the
	// packet; logs from several shards are replayed in Seq order.
	Seq uint64
	At  time.Time
	own *streamOwner
	// WireLen/PayloadLen are the packet sizes the feature windower
	// consumes.
	WireLen, PayloadLen uint32
	RTPTS               uint32
	RTPSeq              uint16
	PT                  uint8
}

// streamOwner is what a shard hangs on a flow-table stream record
// (flow.StreamStats.Owner), the last two links of the chain flow → stream →
// substream → owner → Dedup record: the stream's metric engine, which
// lives, is checkpointed and is evicted with the record, the stream's ID,
// and the reconciliation consumer's handle to the stream's record in the
// duplicate detector. The shard sets the ID when it makes the owner and
// only ever takes the owner's address afterwards, to send it along with
// each observation; reading and writing the handle is the reconciliation
// goroutine's alone. Idle eviction and Rotate start from an empty owner; a
// decoding pass keeps a record's (a delta updates the Dedup's records in
// place, so the handle holds) or makes an empty one.
type streamOwner struct {
	sm    *metrics.StreamMetrics
	id    flow.MediaStreamID // immutable: the record's ID
	dedup meeting.Handle
	epoch uint32 // the shard's ckEpoch at the engine's last MarkDirty
}

// touch notes where the engine's logs stand, once per checkpoint epoch: before
// its first mutation after a checkpoint, they stand where that left them.
func (own *streamOwner) touch(epoch uint32) {
	if own.epoch != epoch {
		own.epoch = epoch
		own.sm.MarkDirty()
	}
}

// The rest of this file keeps memory bounded over long captures (the
// paper's deployment ran for 12+ hours against ~60 k streams): streams
// that have gone idle are finalized, their metric engines archived, and
// the hot maps shrunk. Archived results remain available for reports.
// Config.FlowTTL extends the same idea to every stateful map in the
// shard, with evicted entries folded into the final report rather than
// dropped.

// FinishedStream is an archived, finalized stream, with its record's bounds.
type FinishedStream struct {
	ID                  flow.MediaStreamID
	FirstSeen, LastSeen time.Time
	Metrics             *metrics.StreamMetrics
}

// compareFinished orders archived streams by idle-out time, tie-broken
// by stream identity: the order one engine archives in and the order a
// merge of several shards' archives restores.
func compareFinished(a, b FinishedStream) int {
	if c := a.LastSeen.Compare(b.LastSeen); c != 0 {
		return c
	}
	return flow.CompareStreamID(a.ID, b.ID)
}

// EvictIdle evicts every piece of per-flow state idle since before
// cutoff: metric engines are finalized and moved from StreamMetrics to
// Finished (Streams lists both), flow-table entries fold into the report
// aggregates, idle TCP trackers are dropped; Summary counts them all. The
// flow table's walk finds the victims, each record handing over the engine
// it owns. Archiving in compareFinished order, not map order, makes the
// archive the same on every run.
func (sh *shard) EvictIdle(cutoff time.Time) {
	var victims []FinishedStream
	sh.Flows.EvictIdleFunc(cutoff, func(st *flow.StreamStats) {
		victims = append(victims, FinishedStream{ID: st.ID, FirstSeen: st.FirstSeen, LastSeen: st.LastSeen, Metrics: st.Owner.(*streamOwner).sm})
	})
	slices.SortFunc(victims, compareFinished)
	for _, f := range victims {
		f.Metrics.Finish()
		sh.Finished = append(sh.Finished, f)
		delete(sh.StreamMetrics, f.ID)
	}
	for client, tr := range sh.TCP {
		if tr.LastSeen().After(cutoff) {
			continue
		}
		delete(sh.TCP, client)
		sh.tcpLog.Drop(&tr.Mark, client)
		sh.EvictedTCP++
	}
}

// mergeShards folds the states of parts into one fresh inline shard
// under the global (unscaled) limits, emptying nothing: flow tables, with
// their records' engines, and TCP trackers partition across shards, so
// their union is exact. A single part's state is adopted as it stands.
func mergeShards(cfg Config, parts []*shard) *shard {
	m := newShard(cfg, noObs)
	if len(parts) == 1 {
		m.shardState = parts[0].shardState
		return m
	}
	for _, p := range parts {
		m.shardCounters.add(&p.shardCounters)
		m.Flows.Absorb(p.Flows)
		maps.Copy(m.StreamMetrics, p.StreamMetrics)
		m.ckEpoch = max(m.ckEpoch, p.ckEpoch) // no engine reads as touched since m's next checkpoint
		// Adopted trackers are on none of the merged shard's lists.
		for client, tr := range p.TCP {
			tr.Mark = statecodec.Mark{}
			m.TCP[client] = tr
		}
		m.Finished = append(m.Finished, p.Finished...)
	}
	// Shard archives interleave arbitrarily; order them the way one
	// engine would have produced them.
	slices.SortFunc(m.Finished, compareFinished)
	return m
}
