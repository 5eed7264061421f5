package core

import (
	"io"
	"time"

	"zoomlens/internal/features"
	"zoomlens/internal/pcap"
)

// Engine is the analysis substrate behind every tool: the sequential
// Analyzer and the sharded ParallelAnalyzer both satisfy it — both are
// views of one pipeline — so callers choose a worker count without
// branching on the concrete type.
//
// Buffer ownership: the frame passed to Packet, like the records passed
// to Ingest, is borrowed for the duration of the call only — the engine
// copies whatever it needs to retain (shard batches, quarantined frames),
// so callers may reuse the buffer immediately, including the borrowed
// Data of pcap.Stream.NextInto and NextBatch.
//
// Call order: Packet or Ingest (any number of times, capture order, one
// goroutine), interleaved with Snapshot as desired; then Finish exactly
// once; then Result, whose *Analyzer holds the report accessors
// (Summary, Meetings, MeetingReports, Streams).
type Engine interface {
	// Packet ingests one captured frame, borrowed for the call.
	Packet(at time.Time, frame []byte)
	// Ingest ingests a run of records in capture order, borrowed for the
	// call: Packet for each, under one panic guard for the run.
	Ingest(recs []pcap.Record)
	// Finish flushes all per-stream state; call once after the last packet.
	Finish()
	// Snapshot returns per-meeting rolling metrics over the trailing window.
	Snapshot(now time.Time, window time.Duration) []MeetingSnapshot
	// Result returns the sequential-equivalent merged analyzer (after
	// Finish; the parallel engine panics before it).
	Result() *Analyzer
	// Checkpoint serializes the engine's complete mutable state so
	// RestoreAnalyzer can resume the run with byte-identical results.
	// Call it between Packet calls (it quiesces a parallel engine).
	Checkpoint(w io.Writer) error
	// CheckpointDelta serializes only the mutations since the last
	// checkpoint encode (full or delta), or ErrDeltaUnavailable when no
	// chain is armed — the caller then writes a full checkpoint.
	CheckpointDelta(w io.Writer) error
	// ApplyDelta replays one delta record onto an engine sitting exactly
	// at the record's base state. On error the engine may be partially
	// mutated: Discard it and restore from an earlier generation.
	ApplyDelta(r io.Reader) error
	// Rotate finalizes the current report window, returns it for
	// rendering, and re-seeds the live state for the next window.
	Rotate(now time.Time) *Analyzer
	// DrainFeatures returns the streaming feature rows emitted since the
	// previous drain, in (window, stream) order; nil when the feature
	// layer is disabled (Config.FeatureWindow == 0). Drain cadence never
	// affects row content or order. Call from the ingest goroutine.
	DrainFeatures() []features.Row
}

// Both engine types satisfy Engine; a missing method is a compile error
// here rather than a surprise at a call site.
var (
	_ Engine = (*Analyzer)(nil)
	_ Engine = (*ParallelAnalyzer)(nil)
)
