package obs

import "time"

// CheckpointMetrics instruments the engine driver's checkpoint writer
// and report rotation: how many checkpoints became durable (or failed),
// what the last one cost the packet path (encode) and the writer
// goroutine (write, sync, rename), how long ingest has waited for the
// disk in total, how big the last record was, and when it landed (the
// age an operator alerts on is time() - zoomlens_checkpoint_last_unix).
// Every method is safe on a nil receiver and on handles from a nil
// Registry, matching the rest of the package.
type CheckpointMetrics struct {
	Written   *Counter
	Failed    *Counter
	Restored  *Counter
	Rotations *Counter
	// RotateFailures counts windows whose report file could not be
	// written; Rotations counts only successful window emissions.
	RotateFailures *Counter
	// EncodeMS is the time the ingest goroutine spent encoding the last
	// record; WriteMS the time the writer goroutine then took to make it
	// durable (its writes of the record's chunks run alongside the
	// encode), which ingest does not wait for unless the next record is
	// due first or every chunk is still queued — StallMS totals those
	// waits, and stays near 0 on a disk that keeps up.
	EncodeMS  *Gauge
	WriteMS   *Gauge
	StallMS   *Counter
	SizeBytes *Gauge
	LastUnix  *Gauge

	// DeltaWritten counts incremental (delta) checkpoint records;
	// Written counts fulls only, so the two partition the chain.
	DeltaWritten *Counter
	// Fallbacks counts corrupt or torn checkpoint generations skipped
	// during restore before a valid one loaded.
	Fallbacks *Counter
	// TmpCleaned counts orphaned checkpoint temp files removed at
	// startup (debris of a crash mid-write).
	TmpCleaned *Counter
}

// NewCheckpointMetrics registers the checkpoint series on r (nil r
// yields inert handles).
func NewCheckpointMetrics(r *Registry) *CheckpointMetrics {
	return &CheckpointMetrics{
		Written:        r.Counter("zoomlens_checkpoints_written_total", "Full checkpoint records made durable."),
		Failed:         r.Counter("zoomlens_checkpoint_failures_total", "Checkpoint writes that failed."),
		Restored:       r.Counter("zoomlens_checkpoint_restores_total", "Runs resumed from a checkpoint."),
		Rotations:      r.Counter("zoomlens_report_rotations_total", "Report windows rotated out."),
		RotateFailures: r.Counter("zoomlens_report_rotation_failures_total", "Report windows whose file write failed."),
		EncodeMS:       r.Gauge("zoomlens_checkpoint_encode_ms", "Time the ingest goroutine spent encoding the last checkpoint record."),
		WriteMS:        r.Gauge("zoomlens_checkpoint_write_ms", "Time the writer goroutine took to write, sync and rename the last checkpoint record."),
		StallMS:        r.Counter("zoomlens_checkpoint_stall_ms_total", "Time the ingest goroutine spent waiting for a checkpoint record still being written."),
		SizeBytes:      r.Gauge("zoomlens_checkpoint_size_bytes", "Encoded size of the last checkpoint."),
		LastUnix:       r.Gauge("zoomlens_checkpoint_last_unix", "Unix time of the last successful checkpoint."),

		DeltaWritten: r.Counter("zoomlens_checkpoint_deltas_total", "Incremental (delta) checkpoint records made durable."),
		Fallbacks:    r.Counter("zoomlens_checkpoint_restore_fallbacks_total", "Corrupt checkpoint generations skipped during restore."),
		TmpCleaned:   r.Counter("zoomlens_checkpoint_tmp_cleaned_total", "Orphaned checkpoint temp files removed at startup."),
	}
}

// Record notes the cost of one checkpoint record that became durable,
// full or delta (the caller bumps Written or DeltaWritten).
func (m *CheckpointMetrics) Record(encode, write time.Duration, size int64, at time.Time) {
	if m == nil {
		return
	}
	m.EncodeMS.Set(encode.Milliseconds())
	m.WriteMS.Set(write.Milliseconds())
	m.SizeBytes.Set(size)
	m.LastUnix.Set(at.Unix())
}
