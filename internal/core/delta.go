package core

// Incremental (delta) checkpoints. A full checkpoint rewrites the whole
// engine — linear in total stream count, which at the paper's 12-hour
// scale means paying for hundreds of thousands of idle streams on every
// cadence tick. A delta record instead carries only what changed since
// the previous checkpoint encode: per-layer dirty bits select the
// records to re-serialize, tombstones carry the deletions, and the
// bounded cross-flow layers (capture filter, feature windower) ride
// along whole. Steady-state checkpoint cost therefore scales with churn.
//
// Chain discipline: a delta extends the engine state as of the last
// checkpoint encode (full or delta) and records that state's packet
// count as its base. ApplyDelta refuses a record whose base does not
// match the engine's current packet count, so deltas can only be
// replayed in order on top of the snapshot they were cut from. A failed
// apply may leave the engine partially mutated — callers must Discard
// it and restart the chain from an earlier generation.

import (
	"fmt"
	"io"
	"net/netip"
	"slices"

	"zoomlens/internal/flow"
	"zoomlens/internal/metrics"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/tcprtt"
)

// ErrDeltaUnavailable reports that the engine cannot produce a delta
// record right now — no full checkpoint has armed the chain yet, the
// eviction backlog outgrew the tombstone cap, or the engine is past
// Finish. The caller falls back to a full checkpoint.
var ErrDeltaUnavailable = fmt.Errorf("core: delta checkpoint unavailable (write a full checkpoint)")

// maxCoreTombstones bounds the eviction backlog a delta carries; past it
// the next delta encode reports unavailable and the caller writes a full
// checkpoint (which resets the backlog).
const maxCoreTombstones = 1 << 20

// Discard releases an engine whose delta apply (or restore) failed: a
// parallel engine that has not finished still owns shard goroutines,
// which must be torn down before the engine is dropped. Safe to call on
// any engine, including nil results from a failed restore.
func Discard(eng Engine) {
	if pa, ok := eng.(*ParallelAnalyzer); ok && pa != nil && pa.ringFed() {
		pa.stop()
	}
}

// CheckpointDelta writes a delta record covering everything since the
// last checkpoint encode, or ErrDeltaUnavailable when no chain is armed
// (no full checkpoint yet, tombstone overflow, a rotation broke the
// lineage, or the engine has finished) — the caller then writes a full
// checkpoint instead. A successful encode re-anchors the chain at the
// current state.
func (p *pipeline) CheckpointDelta(w io.Writer) error {
	defer p.cfg.trace("checkpoint_delta")()
	return p.encode(w, true)
}

// ApplyDelta replays one delta record onto the engine, which must sit
// exactly at the record's base — the state of the checkpoint the delta
// was cut from (the normal case: a freshly restored checkpoint being
// rolled forward through its chain). On error the engine may be
// partially mutated: Discard it and restore from an earlier generation.
func (p *pipeline) ApplyDelta(rd io.Reader) error {
	shards, r, err := openCheckpoint(rd, engineKindDelta)
	if err != nil {
		return err
	}
	if shards != len(p.shards) {
		return fmt.Errorf("%w: delta for %d workers applied to %d-worker engine", statecodec.ErrCorrupt, shards, len(p.shards))
	}
	p.reconcile()
	return p.decode(r, true)
}

// deltaReady reports whether a delta encode is currently possible.
// Finish mutates every live metric engine without dirty tracking, so a
// finished engine reports unavailable (the driver's shutdown checkpoint
// is a full one anyway).
func (p *pipeline) deltaReady() bool {
	ready := p.chainArmed && !p.finished && !p.Copies.DeltaOverflow()
	for _, sh := range p.shards {
		ready = ready && !sh.deltaOverflow && !sh.Flows.DeltaOverflow()
	}
	return ready
}

// markCheckpointed re-anchors the chain after any checkpoint encode,
// restore, or delta apply: the current state is now fully captured, so
// every layer's dirty bits and tombstones clear and tracking arms.
func (p *pipeline) markCheckpointed() {
	p.Dedup.MarkCheckpointed()
	p.Copies.MarkCheckpointed()
	for _, sh := range p.shards {
		sh.Flows.MarkCheckpointed()
		for _, sm := range sh.StreamMetrics {
			sm.ClearDirty()
		}
		clear(sh.dirtyTCP)
		sh.deadStreams = sh.deadStreams[:0]
		sh.deadTCP = sh.deadTCP[:0]
		sh.deltaOverflow = false
		sh.ckFinishedLen = len(sh.Finished)
		sh.ckHeadDrops = 0
		sh.deltaArmed = true
	}
	p.ckPackets = p.Packets
	p.chainArmed = true
}

func (sh *shard) tombstoneStreamMetric(id flow.MediaStreamID) {
	if !sh.deltaArmed || sh.deltaOverflow {
		return
	}
	if len(sh.deadStreams) >= maxCoreTombstones {
		sh.deltaOverflow = true
		return
	}
	sh.deadStreams = append(sh.deadStreams, id)
}

func (sh *shard) tombstoneTCP(client netip.AddrPort) {
	if !sh.deltaArmed {
		return
	}
	delete(sh.dirtyTCP, client)
	if sh.deltaOverflow {
		return
	}
	if len(sh.deadTCP) >= maxCoreTombstones {
		sh.deltaOverflow = true
		return
	}
	sh.deadTCP = append(sh.deadTCP, client)
}

// stateDelta encodes the shard's mutations since the last checkpoint
// encode: scalars whole, the flow table's own delta, then tombstones and
// dirty records for the stream metric engines and TCP trackers, and the
// archive's tail.
func (sh *shard) stateDelta(w *statecodec.Writer) {
	sh.stateScalars(w)
	sh.Flows.StateDelta(w)

	slices.SortFunc(sh.deadStreams, flow.CompareStreamID)
	w.Int(len(sh.deadStreams))
	for _, id := range sh.deadStreams {
		encodeStreamID(w, id)
	}

	dirty := make([]flow.MediaStreamID, 0, 64)
	for id, sm := range sh.StreamMetrics {
		if sm.Dirty() {
			dirty = append(dirty, id)
		}
	}
	slices.SortFunc(dirty, flow.CompareStreamID)
	w.Int(len(dirty))
	for _, id := range dirty {
		encodeStreamID(w, id)
		sh.StreamMetrics[id].State(w)
	}

	sortAddrPorts(sh.deadTCP)
	w.Int(len(sh.deadTCP))
	for _, c := range sh.deadTCP {
		w.AddrPort(c)
	}

	dirtyTCP := make([]netip.AddrPort, 0, len(sh.dirtyTCP))
	for c := range sh.dirtyTCP {
		dirtyTCP = append(dirtyTCP, c)
	}
	sortAddrPorts(dirtyTCP)
	w.Int(len(dirtyTCP))
	for _, c := range dirtyTCP {
		w.AddrPort(c)
		sh.TCP[c].State(w)
		w.Time(sh.tcpSeen[c])
	}

	// Archive delta: the Finished list only ever drops from the head
	// (MaxFinished) and appends at the tail, so the record carries the
	// baseline length, how many baseline entries were head-dropped, and
	// the appended tail in full.
	w.Int(sh.ckFinishedLen)
	w.Int(sh.ckHeadDrops)
	encodeFinished(w, sh.Finished[sh.ckFinishedLen-sh.ckHeadDrops:])
}

// applyDelta replays one shard delta payload onto the receiver. On error
// the shard may be partially mutated.
func (sh *shard) applyDelta(r *statecodec.Reader) error {
	if err := sh.restoreScalars(r); err != nil {
		return err
	}
	if err := sh.Flows.ApplyDelta(r); err != nil {
		return err
	}

	for i, nd := 0, r.Count(8); i < nd; i++ {
		id := decodeStreamID(r)
		if err := r.Err(); err != nil {
			return err
		}
		delete(sh.StreamMetrics, id)
	}
	for i, nm := 0, r.Count(12); i < nm; i++ {
		id := decodeStreamID(r)
		sm := new(metrics.StreamMetrics)
		if err := metrics.RestoreStreamMetricsInto(r, sm); err != nil {
			return err
		}
		sh.StreamMetrics[id] = sm
	}

	for i, nd := 0, r.Count(4); i < nd; i++ {
		c := r.AddrPort()
		if err := r.Err(); err != nil {
			return err
		}
		delete(sh.TCP, c)
		delete(sh.tcpSeen, c)
	}
	for i, nt := 0, r.Count(4); i < nt; i++ {
		c := r.AddrPort()
		tr := tcprtt.NewTracker()
		if err := tr.Restore(r); err != nil {
			return err
		}
		sh.TCP[c] = tr
		sh.tcpSeen[c] = r.Time()
		if err := r.Err(); err != nil {
			return err
		}
	}

	baseLen := r.Int()
	headDrops := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if baseLen != len(sh.Finished) {
		r.Failf("core: shard delta archive baseline %d does not match engine archive %d", baseLen, len(sh.Finished))
		return r.Err()
	}
	if headDrops < 0 || headDrops > baseLen {
		r.Failf("core: shard delta archive head drops %d out of range (baseline %d)", headDrops, baseLen)
		return r.Err()
	}
	if headDrops > 0 {
		sh.Finished = append(sh.Finished[:0], sh.Finished[headDrops:]...)
	}
	var err error
	sh.Finished, err = decodeFinished(r, sh.Finished, new(smSlab))
	return err
}
