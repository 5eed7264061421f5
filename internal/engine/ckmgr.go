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
// holds yet, so a write never touches an existing record and no reader
// — including the restore path after a kill -9 — ever sees a partially
// written file under a real checkpoint name. Orphaned temp files from a
// crash mid-write are swept (and counted) at startup.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"zoomlens/internal/core"
	"zoomlens/internal/obs"
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
// goroutine only).
type Checkpointer struct {
	path    string
	keep    int // fulls retained
	metrics *obs.CheckpointMetrics

	seq uint64 // next chain sequence number

	// TmpCleaned is how many orphaned temp files startup removed.
	TmpCleaned int
	// Fulls and Deltas count records written this run.
	Fulls  int
	Deltas int
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

// atomicWrite encodes via write into a temp file next to name, fsyncs,
// and renames it over name. Returns the encoded size.
func atomicWrite(name string, write func(io.Writer) error) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(name), filepath.Base(name)+".tmp-")
	if err != nil {
		return 0, err
	}
	tmpName := tmp.Name()
	cw := &countWriter{w: tmp}
	err = write(cw)
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
		return 0, err
	}
	return cw.n, nil
}

// writeFileAtomic is os.WriteFile through atomicWrite, for the files
// other processes merge (window reports, the cluster status mirror): a
// kill mid-write leaves nothing under name, never a torn file.
func writeFileAtomic(name string, data []byte) error {
	_, err := atomicWrite(name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	return err
}

// write appends one record to the chain under the next sequence number
// and counts it in n and written.
func (c *Checkpointer) write(suffix string, encode func(io.Writer) error, n *int, written *obs.Counter) error {
	start := time.Now()
	size, err := atomicWrite(fmt.Sprintf("%s.%08d%s", c.path, c.seq, suffix), encode)
	if err != nil {
		return err
	}
	c.seq++
	*n++
	written.Inc()
	c.metrics.Record(time.Since(start), size, time.Now())
	return nil
}

// WriteFull writes a complete snapshot as the chain's next .full record,
// then prunes.
func (c *Checkpointer) WriteFull(eng core.Engine) error {
	if err := c.write(chainSuffixFull, eng.Checkpoint, &c.Fulls, c.metrics.Written); err != nil {
		c.metrics.Failed.Inc()
		return err
	}
	c.prune()
	return nil
}

// WriteDelta writes an incremental record extending the chain. When the
// engine cannot produce one (chain not armed, tombstone overflow, or a
// rotation broke the lineage) — or the write itself fails, which
// de-synchronizes the on-disk chain from the engine's in-memory anchor
// — it falls back to a full snapshot, which re-anchors both.
func (c *Checkpointer) WriteDelta(eng core.Engine) error {
	err := c.write(chainSuffixDelta, eng.CheckpointDelta, &c.Deltas, c.metrics.DeltaWritten)
	if err == nil {
		return nil
	}
	if !errors.Is(err, core.ErrDeltaUnavailable) {
		c.metrics.Failed.Inc()
	}
	return c.WriteFull(eng)
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
