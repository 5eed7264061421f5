package engine

// Checkpoint lifecycle management for crash-safe continuous operation.
//
// A checkpoint destination <path> is an append-only chain of records
// <path>.<seq>.full.zlcp / <path>.<seq>.delta.zlcp; nothing is ever
// written at <path> itself. A delta record extends the state as of the
// previous record in the sequence; restore loads the newest valid full
// and replays every delta after it, falling back to older fulls when a
// record is torn or corrupt. Writing a full prunes everything older than
// the retention count's oldest surviving full (compaction). A run that
// writes no deltas (-checkpoint-delta 0) leaves a chain of fulls only.
//
// Every record is written to a temp name in the destination directory,
// fsynced, and renamed into place under a sequence number no record
// holds yet, and the directory is fsynced after the rename, so a write
// never touches an existing record and no reader — including the restore
// path after a kill -9 — ever sees a partially written file under a real
// checkpoint name. Orphaned temp files from a crash mid-write are swept
// (and counted) at startup.
//
// The engine's caller pays for the encode only. A record is encoded on
// the caller's goroutine into the chain's one buffer and handed to a
// writer goroutine for the temp file, the write, the two syncs, the
// rename and (after a full) the prune; at most one record is in flight,
// and the next one waits for it before it encodes, so the buffer is never
// written while it is read and records land in sequence order.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"zoomlens/internal/core"
	"zoomlens/internal/obs"
	"zoomlens/internal/statecodec"
)

const (
	chainSuffixFull  = ".full.zlcp"
	chainSuffixDelta = ".delta.zlcp"
)

// chainFile is one parsed member of a checkpoint chain directory.
type chainFile struct {
	name string // full path
	seq  uint64
	full bool
}

// Checkpointer owns one checkpoint chain: atomic writes, pruning,
// startup temp-file cleanup, and the counters the status line reports.
// Not safe for concurrent use (the driver calls it from the ingest
// goroutine only); the writer goroutine it starts per record touches
// nothing of it but the bytes of buf, and only until Wait has received
// its result.
type Checkpointer struct {
	path    string
	keep    int // fulls retained
	metrics *obs.CheckpointMetrics

	seq uint64 // next chain sequence number

	// buf is the chain's one record buffer: the engine encodes each record
	// straight into it, so it grows to the largest record once.
	buf statecodec.Writer
	// flight is the record being made durable, nil when none is. A record
	// that failed leaves the files behind the engine's in-memory anchor,
	// so needFull makes the next record a full one, which re-anchors both.
	flight   *flight
	needFull bool
	stalled  time.Duration // total time Start* waited for a record in flight

	// TmpCleaned is how many orphaned temp files startup removed.
	TmpCleaned int
	// Fulls and Deltas count the records this run made durable.
	Fulls  int
	Deltas int
}

// flight is one record on its way to the disk.
type flight struct {
	full   bool
	size   int64
	encode time.Duration
	// done receives the writer goroutine's one result: how long the disk
	// took, and the error that stopped it.
	done chan flightResult
}

type flightResult struct {
	write time.Duration
	at    time.Time // when the writer goroutine finished
	err   error
}

// NewCheckpointer prepares a checkpoint destination: sweeps temp-file
// debris from a previous crash and resumes sequence numbering after the
// newest existing record (so a restored run appends to the chain it
// restored from instead of overwriting it). A nil m records nothing.
func NewCheckpointer(path string, keep int, m *obs.CheckpointMetrics) *Checkpointer {
	if m == nil {
		m = obs.NewCheckpointMetrics(nil)
	}
	c := &Checkpointer{path: path, keep: max(keep, 1), metrics: m}
	c.TmpCleaned = cleanOrphanedTmp(path)
	m.TmpCleaned.Add(uint64(c.TmpCleaned))
	for _, cf := range listChain(path) {
		if cf.seq >= c.seq {
			c.seq = cf.seq + 1
		}
	}
	return c
}

// cleanOrphanedTmp removes temp files left next to path by a crash
// mid-checkpoint (any "<base>*.tmp-*" sibling), returning how many.
func cleanOrphanedTmp(path string) int {
	dir, base := filepath.Dir(path), filepath.Base(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, base) || !strings.Contains(name, ".tmp-") {
			continue
		}
		if os.Remove(filepath.Join(dir, name)) == nil {
			n++
		}
	}
	return n
}

// listChain returns the chain files for base path, sorted by sequence.
func listChain(path string) []chainFile {
	dir, base := filepath.Dir(path), filepath.Base(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []chainFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, base+".") {
			continue
		}
		rest := name[len(base)+1:]
		full := strings.HasSuffix(rest, chainSuffixFull[1:])
		delta := strings.HasSuffix(rest, chainSuffixDelta[1:])
		if !full && !delta {
			continue
		}
		seqStr := rest[:strings.IndexByte(rest, '.')]
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			continue
		}
		out = append(out, chainFile{name: filepath.Join(dir, name), seq: seq, full: full})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// atomicWrite writes data to a temp file next to name, fsyncs it, renames
// it over name and fsyncs the directory: a kill mid-write leaves nothing
// under name, never a torn file. The two syncs cover different failures.
// The file's makes the contents durable before the rename can be, so a
// power loss never leaves a complete name on incomplete data; the
// directory's makes the rename itself durable, so a record that later
// records build on cannot vanish in a power loss that its successors
// survive (a killed process loses neither: the kernel still holds both).
func atomicWrite(name string, data []byte) error {
	dir := filepath.Dir(name)
	tmp, err := os.CreateTemp(dir, filepath.Base(name)+".tmp-")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, name)
	}
	if err != nil {
		os.Remove(tmpName)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// start waits out the record in flight, encodes the next one — a delta
// unless full is set, the chain needs re-anchoring or the engine cannot
// cut one — and hands it to a writer goroutine. It returns the earlier
// record's failure if it had one (counted; the record started now is then
// a full), else this record's own encode error.
func (c *Checkpointer) start(eng core.Engine, full bool) error {
	waited := time.Now()
	prev := c.Wait()
	c.stalled += time.Since(waited)
	c.metrics.StallMS.Store(uint64(c.stalled.Milliseconds()))

	began := time.Now()
	c.buf.Reset()
	full = full || c.needFull
	if !full {
		switch err := eng.CheckpointDelta(&c.buf); {
		case errors.Is(err, core.ErrDeltaUnavailable):
			full = true // chain not armed, a rotation broke the lineage, or the engine finished
		case err != nil:
			c.metrics.Failed.Inc()
			return err
		}
	}
	if full {
		if err := eng.Checkpoint(&c.buf); err != nil {
			c.metrics.Failed.Inc()
			return err
		}
	}
	suffix := chainSuffixDelta
	if full {
		suffix = chainSuffixFull
	}
	name := fmt.Sprintf("%s.%08d%s", c.path, c.seq, suffix)
	c.seq++
	fl := &flight{full: full, size: int64(c.buf.Len()), encode: time.Since(began), done: make(chan flightResult, 1)}
	c.flight = fl
	data := c.buf.Bytes()
	go func() {
		t0 := time.Now()
		err := atomicWrite(name, data)
		if err == nil && full {
			c.prune()
		}
		at := time.Now()
		fl.done <- flightResult{at.Sub(t0), at, err}
	}()
	return prev
}

// Wait returns once no record is in flight, with the error of the one
// that was if it failed. A durable record is counted here, so Fulls,
// Deltas and the metrics never run ahead of the disk; a failed one is
// counted as a failure and makes the next record a full.
func (c *Checkpointer) Wait() error {
	fl := c.flight
	if fl == nil {
		return nil
	}
	c.flight = nil
	res := <-fl.done
	if res.err != nil {
		c.needFull = true
		c.metrics.Failed.Inc()
		return res.err
	}
	c.needFull = false
	if fl.full {
		c.Fulls++
		c.metrics.Written.Inc()
	} else {
		c.Deltas++
		c.metrics.DeltaWritten.Inc()
	}
	c.metrics.Record(fl.encode, res.write, fl.size, res.at)
	return nil
}

// StartFull encodes a complete snapshot as the chain's next .full record
// and returns while it is being written (a writer goroutine also prunes
// once it is durable). Its error is that of the record that was in
// flight, if it failed, or of the encode.
func (c *Checkpointer) StartFull(eng core.Engine) error { return c.start(eng, true) }

// StartDelta is StartFull for an incremental record extending the chain.
// When the engine cannot produce one (chain not armed, a rotation broke
// the lineage, or the engine finished) — or an earlier write failed, which
// de-synchronizes the on-disk chain from the engine's in-memory anchor —
// the record is a full snapshot instead, which re-anchors both.
func (c *Checkpointer) StartDelta(eng core.Engine) error { return c.start(eng, false) }

// WriteFull is StartFull and Wait: it returns when the record is durable.
func (c *Checkpointer) WriteFull(eng core.Engine) error {
	return errors.Join(c.StartFull(eng), c.Wait())
}

// prune removes chain files older than the keep-th newest full. Deltas
// between retained fulls stay — fallback restore may need them.
func (c *Checkpointer) prune() {
	files := listChain(c.path)
	var fullSeqs []uint64
	for _, cf := range files {
		if cf.full {
			fullSeqs = append(fullSeqs, cf.seq)
		}
	}
	if len(fullSeqs) <= c.keep {
		return
	}
	cutoff := fullSeqs[len(fullSeqs)-c.keep]
	for _, cf := range files {
		if cf.seq < cutoff {
			os.Remove(cf.name)
		}
	}
}

// restoreFile loads one full checkpoint file.
func restoreFile(name string, cfg core.Config) (core.Engine, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.RestoreAnalyzer(f, cfg)
}

// RestoreEngine rebuilds an engine from a checkpoint destination. When
// path is an existing regular file — a record copied out of a chain by
// hand, or bytes a library caller wrote with Engine.Checkpoint — that
// one file is restored and nothing beside it is consulted. Otherwise
// path is a chain base: the newest valid full plus its deltas, falling
// back to older fulls when a record is torn or corrupt (a delta that
// fails to apply truncates the chain at that point). fallbacks reports
// how many candidate states were skipped before success.
func RestoreEngine(path string, cfg core.Config, m *obs.CheckpointMetrics) (eng core.Engine, fallbacks int, err error) {
	if fi, serr := os.Stat(path); serr == nil && fi.Mode().IsRegular() {
		if eng, err = restoreFile(path, cfg); err != nil {
			return nil, 0, fmt.Errorf("restoring %s: %w", path, err)
		}
		return eng, 0, nil
	}
	defer func() {
		if m != nil && fallbacks > 0 {
			m.Fallbacks.Add(uint64(fallbacks))
		}
	}()
	files := listChain(path)
	if len(files) == 0 {
		return nil, 0, fmt.Errorf("restoring %s: no checkpoint file or chain found", path)
	}
	var firstErr error
	end := len(files)
	badFull := make(map[int]bool)
	for end > 0 {
		// Newest still-credible full before end. A full that failed to
		// restore is skipped, not a chain cut: a full encode does not
		// change engine state, so the deltas recorded after it still
		// apply on top of an older full plus the deltas before it.
		fi := -1
		for i := end - 1; i >= 0; i-- {
			if files[i].full && !badFull[i] {
				fi = i
				break
			}
		}
		if fi < 0 {
			break
		}
		eng, err := restoreFile(files[fi].name, cfg)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("restoring %s: %w", files[fi].name, err)
			}
			fallbacks++
			badFull[fi] = true
			continue
		}
		// Replay the deltas after it. Interleaved full files are skipped
		// as records (there is nothing to apply); whether the deltas
		// beyond a skipped full are still reachable is arbitrated by each
		// delta's own base check — a delta anchored to state only the
		// damaged full captured fails cleanly and truncates the chain
		// there.
		ok := true
		for j := fi + 1; j < end; j++ {
			if files[j].full {
				continue
			}
			f, err := os.Open(files[j].name)
			if err == nil {
				err = eng.ApplyDelta(f)
				f.Close()
			}
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("applying %s: %w", files[j].name, err)
				}
				// The engine may be half-mutated; discard it and retry the
				// chain truncated at the failing record.
				core.Discard(eng)
				fallbacks++
				end = j
				ok = false
				break
			}
		}
		if ok {
			return eng, fallbacks, nil
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("restoring %s: chain has no full checkpoint", path)
	}
	return nil, fallbacks, firstErr
}
