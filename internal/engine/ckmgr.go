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
// The engine's caller pays for the encode only. A record streams from
// the encode on the caller's goroutine through a few fixed chunks to a
// writer goroutine, which creates the temp file, writes each chunk and
// gives it back, then does the two syncs, the rename and (after a full)
// the prune. At most one record is in flight, and the next one waits for
// it before it encodes, so every chunk is free when a record starts and
// records land in sequence order.

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
// nothing of it but the chunk queues, and the flight's name once the
// record's last chunk is queued.
type Checkpointer struct {
	path    string
	keep    int // fulls retained
	metrics *obs.CheckpointMetrics

	seq uint64 // next chain sequence number

	// enc is the record encoder: it spills into pipe, which carries the
	// bytes to the writer goroutine in chunks.
	enc  *statecodec.Writer
	pipe chunkPipe
	// fl is the record being made durable, when inFlight. A record that
	// failed leaves the files behind the engine's in-memory anchor, so
	// needFull makes the next record a full one, which re-anchors both.
	fl       flight
	inFlight bool
	needFull bool
	// fullLanded: the last record started was a full, and Wait saw it
	// land.
	fullLanded bool
	stalled    time.Duration // total time Start* waited for the disk

	// TmpCleaned is how many orphaned temp files startup removed.
	TmpCleaned int
	// Fulls and Deltas count the records this run made durable.
	Fulls  int
	Deltas int
}

// flight is one record on its way to the disk.
type flight struct {
	full bool
	// name is where the record lands, set before its end is queued; ""
	// when the encode failed and the temp file is to go.
	name   string
	size   int64
	encode time.Duration
	// done receives the writer goroutine's one result: how long the disk
	// took once the encode was over, and the error that stopped it.
	done chan flightResult
}

type flightResult struct {
	write time.Duration
	at    time.Time // when the writer goroutine finished
	err   error
}

// The chunks a record streams through: enough for the disk to write one
// while the encode fills the next, each the encoder's spill size.
const (
	chunkCount = 4
	chunkSize  = statecodec.SpillSize
)

// chunkPipe is the encoder's sink: Write copies into a free chunk and
// queues it for the writer goroutine, which gives it back once written.
// A nil chunk ends the record.
type chunkPipe struct {
	free, full chan []byte
	size       int64         // bytes of the record so far
	stalled    time.Duration // time Write waited for a free chunk
}

func (p *chunkPipe) Write(b []byte) (int, error) {
	p.size += int64(len(b))
	for n := 0; n < len(b); {
		waited := time.Now()
		ch := <-p.free
		p.stalled += time.Since(waited)
		k := copy(ch[:cap(ch)], b[n:])
		p.full <- ch[:k]
		n += k
	}
	return len(b), nil
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
	// full holds every chunk and the record's end, so queueing never waits.
	c.pipe = chunkPipe{free: make(chan []byte, chunkCount), full: make(chan []byte, chunkCount+1)}
	for range chunkCount {
		c.pipe.free <- make([]byte, 0, chunkSize)
	}
	c.enc = statecodec.NewWriter(&c.pipe)
	c.fl.done = make(chan flightResult, 1)
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
// mid-checkpoint, returning how many: "<base>.*.tmp-*" siblings, the
// chain's own names as listChain reads them, not all that share its prefix.
func cleanOrphanedTmp(path string) int {
	dir, base := filepath.Dir(path), filepath.Base(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, base+".") || !strings.Contains(name, ".tmp-") {
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

// atomicWrite writes data to a temp file next to name and lands it there
// (see land).
func atomicWrite(name string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(name), filepath.Base(name)+".tmp-")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	return land(tmp, name, err)
}

// land finishes a temp file whose writes ended with err: it fsyncs it,
// renames it over name and fsyncs the directory, or removes it when
// anything failed or name is "". A kill mid-write leaves nothing under
// name, never a torn file. The two syncs cover different failures. The
// file's makes the contents durable before the rename can be, so a power
// loss never leaves a complete name on incomplete data; the directory's
// makes the rename itself durable, so a record that later records build
// on cannot vanish in a power loss that its successors survive (a killed
// process loses neither: the kernel still holds both).
func land(tmp *os.File, name string, err error) error {
	if err == nil && name != "" {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil && name != "" {
		err = os.Rename(tmp.Name(), name)
	}
	if err != nil || name == "" {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(filepath.Dir(name))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// start waits out the record in flight, starts the writer goroutine for
// the next one and encodes it into the chunk pipe — a delta unless full
// is set, the chain needs re-anchoring or the engine cannot cut one. It
// returns the earlier record's failure if it had one (counted; the record
// started now is then a full), else this record's own encode error.
func (c *Checkpointer) start(eng core.Engine, full bool) error {
	waited := time.Now()
	prev := c.Wait()
	c.stalled += time.Since(waited)
	c.fullLanded = false

	began := time.Now()
	seq := c.seq
	c.fl.name = ""
	c.inFlight = true
	go c.write(seq)
	c.enc.Reset()
	c.pipe.size, c.pipe.stalled = 0, 0
	full = full || c.needFull
	var err error
	if !full {
		if err = eng.CheckpointDelta(c.enc); errors.Is(err, core.ErrDeltaUnavailable) {
			full, err = true, nil // chain not armed, a rotation broke the lineage, or the engine finished
		}
	}
	if full && err == nil {
		err = eng.Checkpoint(c.enc)
	}
	c.stalled += c.pipe.stalled
	c.metrics.StallMS.Store(uint64(c.stalled.Milliseconds()))
	if err == nil {
		suffix := chainSuffixDelta
		if full {
			suffix = chainSuffixFull
		}
		c.fl.name = fmt.Sprintf("%s.%08d%s", c.path, seq, suffix)
		c.seq++
	} else {
		c.metrics.Failed.Inc()
	}
	c.fl.full, c.fl.size, c.fl.encode = full, c.pipe.size, time.Since(began)
	c.pipe.full <- nil
	if err != nil {
		return err
	}
	return prev
}

// write is the writer goroutine of record seq: it creates the temp file,
// writes each chunk the encode queues and gives it back, and at the
// record's end lands the file under the flight's name (see land), then
// prunes after a full. A failure stops the writes but not the draining,
// so the encode never waits on a broken disk.
func (c *Checkpointer) write(seq uint64) {
	tmp, err := os.CreateTemp(filepath.Dir(c.path), fmt.Sprintf("%s.%08d.tmp-", filepath.Base(c.path), seq))
	for {
		ch := <-c.pipe.full
		if ch == nil {
			break
		}
		if err == nil {
			_, err = tmp.Write(ch)
		}
		c.pipe.free <- ch[:0]
	}
	t0 := time.Now()
	if tmp != nil {
		err = land(tmp, c.fl.name, err)
	}
	if err == nil && c.fl.full && c.fl.name != "" {
		c.prune()
	}
	at := time.Now()
	c.fl.done <- flightResult{at.Sub(t0), at, err}
}

// Wait returns once no record is in flight, with the error of the one
// that was if it failed. A durable record is counted here, so Fulls,
// Deltas and the metrics never run ahead of the disk; a failed one is
// counted as a failure and makes the next record a full. A record whose
// encode failed was reported by its start and counts nothing here.
func (c *Checkpointer) Wait() error {
	if !c.inFlight {
		return nil
	}
	c.inFlight = false
	res := <-c.fl.done
	switch {
	case c.fl.name == "":
		return nil
	case res.err != nil:
		c.needFull = true
		c.metrics.Failed.Inc()
		return res.err
	}
	c.needFull = false
	c.fullLanded = c.fl.full
	if c.fl.full {
		c.Fulls++
		c.metrics.Written.Inc()
	} else {
		c.Deltas++
		c.metrics.DeltaWritten.Inc()
	}
	c.metrics.Record(c.fl.encode, res.write, c.fl.size, res.at)
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
