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

	"zoomlens/internal/flow"
	"zoomlens/internal/statecodec"
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
	if pa, ok := eng.(*ParallelAnalyzer); ok && pa != nil && pa.queueFed() {
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
	ready := p.chainArmed && !p.finished
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
		for _, tr := range sh.TCP {
			tr.ClearDirty()
		}
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
	if !sh.deltaArmed || sh.deltaOverflow {
		return
	}
	if len(sh.deadTCP) >= maxCoreTombstones {
		sh.deltaOverflow = true
		return
	}
	sh.deadTCP = append(sh.deadTCP, client)
}
