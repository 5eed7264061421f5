// Package core assembles the paper's full passive-measurement pipeline:
// packets in, per-stream performance metrics and per-meeting structure
// out.
//
// The Analyzer consumes captured packets (from a pcap file or live from
// the simulator), applies the capture filter (§4.1/§6.1), parses Zoom
// encapsulations (§4.2), demultiplexes flows and streams (Figure 6),
// unifies stream copies and groups them into meetings (§4.3), and
// computes every metric of §5: bit rates, frame rate/size, latency (RTP
// copy matching and TCP RTT), frame-level jitter, loss/retransmission,
// and frame delay.
package core

import (
	"fmt"
	"io"
	"net/netip"
	"time"

	"zoomlens/internal/features"
	"zoomlens/internal/layers"
	"zoomlens/internal/meeting"
	"zoomlens/internal/metrics"
	"zoomlens/internal/obs"
	"zoomlens/internal/pcap"
	"zoomlens/internal/rtcproto"
	"zoomlens/internal/zoom"
)

// Config parameterizes an Analyzer.
type Config struct {
	// ZoomNetworks and CampusNetworks configure the capture filter.
	ZoomNetworks   []netip.Prefix
	CampusNetworks []netip.Prefix
	// PreFiltered indicates the input contains only Zoom traffic (e.g.
	// the output of cmd/zoomcap); the filter still runs for P2P
	// bookkeeping but non-matching packets are analyzed anyway.
	PreFiltered bool

	// Protos is the ordered set of protocol plugins the UDP media path
	// tries; the first whose Probe accepts a payload claims it. Nil
	// means rtcproto.DefaultSet() (every registered plugin in canonical
	// probe order). A single-element set pins the analyzer to one
	// application's decoder.
	Protos []rtcproto.Plugin

	// Bounded-state hardening for continuous deployments (§6's 12-hour
	// tap, and beyond). All zero values mean unlimited/disabled — the
	// right default for one-shot trace analysis, where results must not
	// depend on caps. The caps bound concurrent state; what a report
	// window keeps for its whole length (the archive, the duplicate
	// detector's records, RTT samples) is bounded by rotating the window
	// (Rotate), not by a cap.

	// MaxFlows and MaxStreams bound the flow table (see flow.Limits).
	// Entries turned away at a cap are counted, not silently dropped. The
	// caps a deployment cannot reach by flag follow from these two:
	// MaxFlows also caps the TCP RTT trackers (one per Zoom control
	// client endpoint), and a set MaxStreams caps each stream at
	// maxSubstreams payload types and caps the copy matcher
	// (effectiveMaxCopyPending).
	MaxFlows   int
	MaxStreams int
	// FlowTTL enables idle eviction of per-flow state: every 4096 frames
	// routed (a cluster worker's: received), flows, streams, TCP trackers
	// and metric engines idle longer than FlowTTL are evicted in every
	// shard (metric engines are finalized and archived first). Preserved:
	// every total, every stream's rows in every report (Streams lists the
	// archive) and each ID's packet and byte sums. Not preserved: loss,
	// jitter and frame continuity across the idle gap of a stream that
	// resumes (a new StreamSegment). The cross-flow stream detector ages
	// on its own linkage window (meeting.Dedup.Observe), not on this.
	FlowTTL time.Duration
	// Quarantine, when non-nil, receives the offending frame whenever
	// per-packet processing panics (see Quarantine). It may be shared
	// across analyzers; it is safe for concurrent use.
	Quarantine *Quarantine

	// Shed lets the parallel dispatcher drop packets (with accounting)
	// when a shard queue is full instead of blocking on it. Off by
	// default: a blocked dispatcher preserves the byte-identical
	// sequential-equivalence invariant, which shedding necessarily gives
	// up. Live taps that must never stall ingest turn it on and watch
	// the shed counters. The sequential analyzer has no queues and never
	// sheds.
	Shed bool

	// FeatureWindow, when positive, enables the streaming feature
	// windower: per-stream feature rows on the capture clock over
	// epoch-aligned windows of this duration (see internal/features).
	// Rows accumulate until DrainFeatures. Zero disables the layer
	// entirely — no per-packet cost.
	FeatureWindow time.Duration

	// Obs, when non-nil, receives live pipeline metrics mirrored from the
	// engine's tallies: per-stage packet counts, state-table occupancy
	// against the caps above, eviction, panic and accounting-gap series
	// (obs.go). Nil costs one branch per refresh.
	Obs *obs.Registry
	// Tracer, when non-nil, receives coarse stage timings (finish, merge,
	// snapshot). Nil is a no-op.
	Tracer obs.Tracer
}

// trace wraps Config.Tracer as a nil-safe stage timer.
func (cfg Config) trace(stage string) func() { return obs.Stage(cfg.Tracer, stage) }

// protos resolves the plugin probe chain (Config.Protos, or the
// canonical default set).
func (cfg Config) protos() []rtcproto.Plugin {
	if cfg.Protos == nil {
		return rtcproto.DefaultSet()
	}
	return cfg.Protos
}

// pipeline is the engine behind both exported analyzers: one front end,
// N ≥ 1 shards, and one reconciliation consumer for the cross-flow
// stages. With one shard it runs inline — the front end calls the shard
// directly and the shard's observations go straight into the
// reconciliation consumer, no goroutine and no frame copy. With more,
// each shard is fed over its own bounded channel (parallel.go) and logs
// its observations, which a reconciliation goroutine replays in capture
// order. Finish folds the shards of a queue-fed pipeline into one inline
// shard, so from then on every pipeline is the sequential-equivalent
// result.
type pipeline struct {
	frontEnd
	// reconState belongs to the reconciliation goroutine between quiesce
	// points while the shards are queue-fed, to the caller otherwise.
	reconState
	shards  []*shard
	workers int
	// recon is a queue-fed pipeline's reconciliation goroutine.
	recon *reconciler

	// finished makes Finish idempotent: ReadPCAP finishes internally, so
	// a caller following it with its own Finish must not flush (and
	// double-count) per-stream state again. Ingesting another packet
	// re-arms it.
	finished bool

	// Delta-checkpoint chain state: ckPackets is the packet count at the
	// last checkpoint encode (the next delta's base); chainArmed is set by
	// full checkpoints and restores and cleared by rotation.
	ckPackets  uint64
	chainArmed bool

	// result is the report view of an inline pipeline (nil while shards
	// are queue-fed: their state is not readable until Finish).
	result *Analyzer
}

// Analyzer is the sequential engine — front end, one inline shard and
// the reconciliation consumer on the caller's goroutine — and the form
// every engine's results take: the parallel engine's Finish and the
// cluster aggregator's merge both yield one. Feed packets in capture
// order via Packet (or a whole file via ReadPCAP), then call Finish once
// before reading results.
//
// Its exported fields are those of its parts: the head counters
// (ClusterHead: Packets, Bytes, DroppedByFilter, …, counting what the
// front end saw), the shard's per-flow state and tallies (Flows,
// StreamMetrics, TCP, Finished, ProtoDecoded, UDPKeptPackets, …), and the
// cross-flow state (Dedup, Copies). Summary adds up the totals that
// span both halves.
type Analyzer struct {
	*pipeline
	*shard
}

// reconState is the reconciliation consumer: the cross-flow stages, fed
// every media observation in global capture order. Because they are
// deterministic in observation order, it does not matter whether they
// are fed packet by packet (inline), one cut at a time (queue-fed shard
// logs), or all at once from worker logs (cluster).
type reconState struct {
	// Dedup unifies stream copies (§4.3); Copies matches them for §5.3
	// method-1 RTT samples.
	Dedup  *meeting.Dedup
	Copies *metrics.CopyMatcher
	// feats is the streaming feature windower (nil unless
	// Config.FeatureWindow is set).
	feats *features.Windower
}

func newReconState(cfg Config) reconState {
	rec := reconState{Dedup: meeting.NewDedup(), Copies: metrics.NewCopyMatcher()}
	rec.Copies.MaxPending = effectiveMaxCopyPending(cfg)
	if cfg.FeatureWindow > 0 {
		rec.feats = features.NewWindower(cfg.FeatureWindow)
	}
	return rec
}

// observe consumes one media observation, which it does not keep.
func (rec *reconState) observe(o *mediaObs) {
	own := o.own
	id := &own.id
	unified := rec.Dedup.ObserveBy(&own.dedup, &meeting.StreamObs{
		Time: o.At, Flow: id.Flow, Key: id.Key, Seq: o.RTPSeq, TS: o.RTPTS,
	})
	rec.Copies.Observe(unified, id.Flow, o.PT, o.RTPSeq, o.RTPTS, o.At)
	if rec.feats != nil {
		rec.feats.Observe(features.Obs{
			At: o.At, Flow: id.Flow, Key: id.Key,
			WireLen: int(o.WireLen), PayloadLen: int(o.PayloadLen),
			PT: o.PT, RTPSeq: o.RTPSeq, RTPTS: o.RTPTS,
		})
	}
}

// maxSubstreams is the per-stream substream cap of a bounded deployment
// (MaxStreams > 0): Zoom uses at most 6 RTP payload types per stream, so
// 16 never refuses real traffic and stops a stream cycling through all
// 128 from growing without bound.
const maxSubstreams = 16

// maxTCP is the cap on TCP RTT trackers: one per client endpoint, so the
// flow cap bounds them too.
func (cfg Config) maxTCP() int { return cfg.MaxFlows }

// effectiveMaxCopyPending resolves the cap on the RTT copy matcher's
// waiting observations (§5.3 method 1): a bounded deployment gets one
// derived from the stream cap (they are per unmatched packet, so scale
// well above it); zero defers to the matcher's own default.
func effectiveMaxCopyPending(cfg Config) int {
	if cfg.MaxStreams > 0 {
		return 256 * cfg.MaxStreams
	}
	return 0
}

// newPipeline builds the front end and reconciliation consumer for the
// given shard count; the caller attaches the shards.
func newPipeline(cfg Config, workers int) *pipeline {
	p := &pipeline{frontEnd: newFrontEnd(cfg, workers), reconState: newReconState(cfg), workers: workers}
	p.o = newCoreObs(cfg.Obs, "", cfg)
	p.o.feedHead(&p.ClusterHead)
	return p
}

// setInline installs sh as the pipeline's only shard, wired straight
// into the reconciliation consumer.
func (p *pipeline) setInline(sh *shard) *Analyzer {
	sh.sink = p.observe
	p.n, p.shards = 1, []*shard{sh}
	p.result = &Analyzer{p, sh}
	return p.result
}

// NewAnalyzer builds a sequential analyzer: the one-worker engine.
func NewAnalyzer(cfg Config) *Analyzer { return NewParallelAnalyzer(cfg, 1).result }

// Packet ingests one captured frame: a run of one (see Ingest). The
// frame is borrowed for the duration of the call — anything the engine
// retains (shard batches, quarantined frames) is copied — so callers may
// reuse the buffer immediately. Not safe for concurrent use: one
// goroutine feeds the engine.
func (p *pipeline) Packet(at time.Time, frame []byte) {
	recs := [1]pcap.Record{{Timestamp: at, Data: frame}}
	p.Ingest(recs[:])
}

// Ingest ingests a run of captured records in capture order, each under
// the engine's next global sequence number. The records and their Data
// are borrowed for the call, like Packet's frame.
func (p *pipeline) Ingest(recs []pcap.Record) { p.ingest(recs, false) }

// IngestSeq is Ingest with externally assigned global capture sequence
// numbers: each record's PacketID (the cluster splitter's epb_packetid)
// in place of the engine's own count. The number tags the media
// observations the packet produces, so the aggregator can restore global
// capture order across workers.
func (p *pipeline) IngestSeq(recs []pcap.Record) { p.ingest(recs, true) }

func (p *pipeline) ingest(recs []pcap.Record, stamped bool) {
	for i := 0; i < len(recs); {
		i = p.ingestRun(recs, i, stamped)
	}
}

// ingestRun routes recs[i:] and delivers each kept frame to its shard,
// under one deferred recover for the run instead of one per frame. A
// panic while routing record i is contained exactly as a per-frame guard
// would contain it — counted, quarantined, the frame dropped and still
// delivered — and ingestRun returns i+1 for the caller to resume there. A
// panic anywhere else (a shard's own processing contains its panics) is
// not the front end's and propagates.
func (p *pipeline) ingestRun(recs []pcap.Record, i int, stamped bool) (next int) {
	p.finished = false
	routing := false
	defer func() {
		if !routing {
			return
		}
		r := recover()
		rec := &recs[i]
		p.contain(r, rec.Timestamp, rec.Data)
		p.deliver(0, false, p.seq, rec.Timestamp, rec.Data)
		next = i + 1
	}()
	for ; i < len(recs); i++ {
		rec := &recs[i]
		seq := p.seq + 1
		if stamped {
			seq = rec.PacketID
		}
		routing = true
		idx, keep := p.route(rec.Timestamp, rec.Data, seq)
		routing = false
		p.deliver(idx, keep, seq, rec.Timestamp, rec.Data)
	}
	return i
}

// deliver is the shard half of ingest for one routed frame: a kept frame
// is processed inline or batched for its queue-fed shard, and a due
// eviction (evictDue) runs after it, or rides every queue (dispatch).
// Every obsUpdateEvery frames it pushes the front end's feeds (inline: all).
func (p *pipeline) deliver(idx int, keep bool, seq uint64, at time.Time, frame []byte) {
	sh := p.shards[idx]
	if p.queueFed() {
		p.dispatch(sh, keep, seq, at, frame)
		if p.o.on() && p.Packets%obsUpdateEvery == 0 {
			p.o.push()
		}
		return
	}
	if keep {
		sh.process(seq, at, frame)
	}
	if p.evictDue() {
		sh.EvictIdle(at.Add(-p.cfg.FlowTTL))
	}
	if p.o.on() && p.Packets%obsUpdateEvery == 0 {
		p.updateGauges()
	}
}

// Finish flushes all per-stream state; call it once after the last
// packet, before reading results. It is idempotent: repeated calls
// without an intervening Packet are no-ops, so following ReadPCAP (which
// finishes internally) with an explicit Finish is safe.
func (p *pipeline) Finish() {
	if p.finished {
		return
	}
	p.finished = true
	// Finish appends to every live stream's logs without dirty tracking, so
	// like a rotation it ends the chain's lineage: an engine fed again
	// after it needs a full checkpoint before its next delta.
	p.chainArmed = false
	p.collapse()
	defer p.cfg.trace("finish")()
	for _, sm := range p.shards[0].StreamMetrics {
		sm.Finish()
	}
	if p.feats != nil {
		p.feats.FinishFlush()
	}
	p.updateGauges()
}

// Result returns the sequential-equivalent analyzer: the engine itself
// when it runs inline, the merged shards after a parallel engine's
// Finish. It panics on a parallel engine that has not finished.
func (p *pipeline) Result() *Analyzer {
	if p.result == nil {
		panic(fmt.Sprintf("core: ParallelAnalyzer.Result before Finish (%d workers)", p.workers))
	}
	return p.result
}

// queueFed reports which transport the pipeline runs: shards on their own
// goroutines behind batch queues, or (false) one inline shard.
func (p *pipeline) queueFed() bool { return p.shards[0].queue != nil }

// Workers returns the shard count the engine was built with.
func (p *pipeline) Workers() int { return p.workers }

// DrainFeatures returns the feature rows emitted since the previous
// drain (nil when the feature layer is disabled). Drain cadence never
// affects row content or order. Call from the ingest goroutine.
func (p *pipeline) DrainFeatures() []features.Row {
	if p.feats == nil {
		return nil
	}
	p.quiesce()
	return p.feats.Drain()
}

// ReadPCAP feeds an entire capture stream (classic pcap or pcapng)
// through the engine and finishes. A capture cut mid-record (a crashed
// or interrupted tcpdump) is not an error: everything before the cut is
// analyzed and Truncated is set.
func (p *pipeline) ReadPCAP(r io.Reader) error {
	s, err := pcap.OpenStream(r)
	if err != nil {
		return err
	}
	var recs [pcap.BatchLen]pcap.Record
	for {
		n, err := s.NextBatch(recs[:])
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		p.Ingest(recs[:n])
	}
	if s.Truncated() {
		p.Truncated = true
	}
	p.Finish()
	return nil
}

// SetPanicHook installs a hook run inside every shard's per-packet
// recover scope before the decode. Tests use it to inject deterministic
// panics into the quarantine path; production never sets it. Call
// before the first packet.
func (p *pipeline) SetPanicHook(h func(at time.Time, frame []byte)) {
	for _, sh := range p.shards {
		sh.panicHook = h
	}
}

// clientOf is the protocol-aware client derivation of the roll-up: Zoom
// streams keep the Zoom-server convention, other protocols use campus
// membership.
func (fe *frontEnd) clientOf() func(layers.FiveTuple, zoom.StreamKey) netip.AddrPort {
	return meeting.ClientOfProto(fe.filter.ZoomNetworks().Contains, fe.filter.CampusNetworks().Contains)
}

// Meetings runs the §4.3 grouping over everything observed.
func (a *Analyzer) Meetings() []meeting.Meeting { return a.rollup().meetings }

// Summary is the Table 6 style capture roll-up, extended with the
// hardening counters a continuous deployment needs to trust partial
// results: how much state was aged out or turned away at caps, how many
// packets panicked (and were quarantined), and whether the input was
// truncated.
type Summary struct {
	Duration    time.Duration
	Packets     uint64
	Bytes       uint64
	ZoomUDP     uint64
	TCPPackets  uint64
	STUNPackets uint64
	// STUNPortNonSTUN counts packets on the STUN port that lacked STUN
	// framing (they went to the decoders, not into STUNPackets).
	STUNPortNonSTUN uint64
	// ProtoDecoded counts decoded media packets per protocol plugin,
	// indexed by rtcproto.ID (0 = zoom, 1 = webrtc).
	ProtoDecoded [rtcproto.NumIDs]uint64
	Undecodable  uint64
	Flows        int
	Streams      int
	Meetings     int
	// EvictedFlows/EvictedStreams count idle-TTL evictions; the evicted
	// entries' packets and bytes remain in the report aggregates.
	EvictedFlows   uint64
	EvictedStreams uint64
	// RejectedPackets counts packets refused new state at a hard cap
	// (flow, stream, substream, or TCP tracker).
	RejectedPackets uint64
	// PanicsRecovered counts packets whose processing panicked and was
	// contained.
	PanicsRecovered uint64
	// ShedPackets/ShedBytes count packets dropped by overload shedding
	// (Config.Shed): received and counted, but never analyzed.
	ShedPackets uint64
	ShedBytes   uint64
	// Truncated marks a capture cut mid-record: the summary covers the
	// readable prefix.
	Truncated bool
}

// Summary computes the capture roll-up.
func (a *Analyzer) Summary() Summary {
	s := a.Counters()
	s.Meetings = len(a.Meetings())
	return s
}

// Counters is Summary without the §4.3 meeting grouping — Meetings is 0 —
// for a caller that prints no meeting figure (the status line) and should
// not pay for a roll-up over every stream record to get its counters.
func (a *Analyzer) Counters() Summary {
	tot := a.Flows.Totals()
	ev := a.Flows.Evictions()
	return Summary{
		Duration:        a.LastTS.Sub(a.FirstTS),
		Packets:         a.Packets,
		Bytes:           a.Bytes,
		ZoomUDP:         a.ProtoDecoded[rtcproto.IDZoom],
		TCPPackets:      a.TCPPackets,
		STUNPackets:     a.STUNPackets,
		STUNPortNonSTUN: a.STUNPortNonSTUN,
		ProtoDecoded:    a.ProtoDecoded,
		Undecodable:     a.Undecodable + a.ProtoUndecodable,
		Flows:           tot.Flows,
		Streams:         tot.Streams,
		EvictedFlows:    ev.EvictedFlows,
		EvictedStreams:  ev.EvictedStreams,
		RejectedPackets: ev.RejectedFlowPackets + ev.RejectedStreamPackets + ev.RejectedSubstreamPackets + a.RejectedTCPPackets,
		PanicsRecovered: a.PanicsRecovered + a.ShardPanics,
		ShedPackets:     a.ShedPackets,
		ShedBytes:       a.ShedBytes,
		Truncated:       a.Truncated,
	}
}

// AccountingGap is packet conservation, the rule that every frame read
// ends in exactly one terminal bucket: the frames the front end counted
// in, minus the buckets — filtered, undecodable, front-end panic and shed
// at the front end; TCP, STUN, kept UDP and kept without a transport
// header in the shards. A shard panic can strike before or after its
// frame is counted, so the rule is 0 <= gap <= shardPanics. Read it at
// rest: inline, after a quiesce, or after Finish.
func (p *pipeline) AccountingGap() (gap int64, shardPanics uint64) {
	h := &p.ClusterHead
	out := h.DroppedByFilter + h.Undecodable + h.PanicsRecovered + h.ShedPackets
	for _, sh := range p.shards {
		out += sh.TCPPackets + sh.STUNPackets + sh.UDPKeptPackets + sh.transportless
		shardPanics += sh.ShardPanics
	}
	return int64(h.Packets) - int64(out), shardPanics
}

// conserveStreams is stream conservation, the rule that every stream the
// flow table evicted is in the archive and nothing else is: EvictIdle
// archives each victim as the table counts it, a merge sums both sides,
// and Rotate empties both. The rule is archived == evicted. It makes
// Streams list every segment the window admitted.
func (sh *shard) conserveStreams() (archived, evicted uint64) {
	return uint64(len(sh.Finished)), sh.Flows.Evictions().EvictedStreams
}
