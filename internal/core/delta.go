package core

// Incremental (delta) checkpoints. A full checkpoint rewrites the whole
// engine — linear in total stream count, which at the paper's 12-hour
// scale means paying for hundreds of thousands of idle streams on every
// cadence tick. A delta record instead carries only what changed since
// the previous checkpoint encode: each keyed collection's change log
// (statecodec.ChangeLog) selects the records to re-serialize and the
// deletions to announce, and the bounded cross-flow layers (capture
// filter, feature windower) ride along whole. Steady-state checkpoint
// cost therefore scales with churn.
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

	"zoomlens/internal/statecodec"
)

// ErrDeltaUnavailable reports that the engine cannot produce a delta
// record right now — no full checkpoint has armed the chain yet, a
// rotation broke the lineage, or the engine is past Finish. The caller
// falls back to a full checkpoint.
var ErrDeltaUnavailable = fmt.Errorf("core: delta checkpoint unavailable (write a full checkpoint)")

// Discard releases an engine whose delta apply (or restore) failed: a
// parallel engine that has not finished still owns shard goroutines and
// a reconciliation goroutine, which must be torn down before the engine
// is dropped. Safe to call on any engine, including nil results from a
// failed restore.
func Discard(eng Engine) {
	if pa, ok := eng.(*ParallelAnalyzer); ok && pa != nil && pa.queueFed() {
		pa.stop()
	}
}

// CheckpointDelta writes a delta record covering everything since the
// last checkpoint encode, or ErrDeltaUnavailable when no chain is armed
// (no full checkpoint yet, a rotation broke the lineage, or the engine
// has finished) — the caller then writes a full
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
	// No refresh: an engine a failed chain restore discards feeds nothing.
	p.rest()
	return p.decode(r, true)
}

// deltaReady reports whether a delta encode is currently possible. Finish
// disarms the chain, and a checkpoint restored from a finished engine
// arrives finished, so either way a finished engine reports unavailable
// (the driver's shutdown checkpoint is a full one anyway).
func (p *pipeline) deltaReady() bool { return p.chainArmed && !p.finished }

// markCheckpointed re-anchors the chain after any checkpoint encode,
// restore, or delta apply: the current state is now fully captured, so
// every layer's change logs empty and arm, and the live series rebase. It
// visits what changed since the last checkpoint and nothing else.
func (p *pipeline) markCheckpointed() {
	p.Dedup.MarkCheckpointed()
	p.Copies.MarkCheckpointed()
	p.o.rebase()
	for _, sh := range p.shards {
		sh.so.rebase()
		sh.Flows.MarkCheckpointed()
		sh.ckEpoch++
		sh.tcpLog.MarkCheckpointed()
		sh.ckFinishedLen = len(sh.Finished)
	}
	p.ckPackets = p.Packets
	p.chainArmed = true
}
