// Package engine is the shared CLI driver behind the zoomlens tools:
// one flag surface, one input-opening path, and one ingest loop feed a
// core.Engine, so the tools differ only in how they print the result.
//
// The package has two layers. Source is the input half every tool uses:
// it opens a path (or stdin), sniffs classic pcap vs. pcapng, and
// iterates records zero-copy. Flags/Run is the full analysis pipeline
// for the reporting tools: flags → engine → signal-aware ingest with
// borrowed buffers → snapshots → status line.
package engine

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zoomlens/internal/cluster"
	"zoomlens/internal/core"
	"zoomlens/internal/obs"
	"zoomlens/internal/pcap"
	"zoomlens/internal/rtcproto"
)

// Source is an opened capture input: a file or stdin ("-"), classic
// pcap or pcapng. Records are iterated zero-copy via NextInto.
type Source struct {
	f      *os.File
	stream *pcap.Stream
}

// Open opens path ("-" selects stdin) and sniffs the capture format.
func Open(path string) (*Source, error) {
	var f *os.File
	if path == "-" {
		f = os.Stdin
	} else {
		var err error
		f, err = os.Open(path)
		if err != nil {
			return nil, err
		}
	}
	stream, err := pcap.OpenStream(f)
	if err != nil {
		if f != os.Stdin {
			f.Close()
		}
		return nil, err
	}
	return &Source{f: f, stream: stream}, nil
}

// NextInto reads the next record into rec; rec.Data borrows the
// reader's buffer and is valid only until the next call.
func (s *Source) NextInto(rec *pcap.Record) error { return s.stream.NextInto(rec) }

// Truncated reports whether the stream was cut mid-record.
func (s *Source) Truncated() bool { return s.stream.Truncated() }

// Nanosecond reports whether record timestamps carry full nanosecond
// resolution (see pcap.Stream.Nanosecond).
func (s *Source) Nanosecond() bool { return s.stream.Nanosecond() }

// Close closes the underlying file (a no-op for stdin).
func (s *Source) Close() error {
	if s.f == os.Stdin {
		return nil
	}
	return s.f.Close()
}

// Flags holds the common analysis-tool flag values: input, engine
// sizing, bounded-state caps, quarantine, and the observability set
// (obs.go).
type Flags struct {
	Input          string
	Proto          string
	Workers        int
	MaxFlows       int
	MaxStreams     int
	FlowTTL        time.Duration
	QuarantinePath string
	Obs            *ObsFlags

	// Checkpoint/restore and report rotation (all trace-clock driven, so
	// offline replays behave exactly like the live tap they replay).
	Checkpoint         string
	CheckpointInterval time.Duration
	CheckpointDelta    time.Duration
	CheckpointKeep     int
	Restore            string
	Rotate             time.Duration
	RotateOut          string

	// Overload / memory-bound hardening.
	Shed        bool
	MaxFinished int

	// Streaming feature extraction and live QoE inference (the
	// header-free pipeline: windower rows → CSV and/or model).
	Features      string
	FeatureWindow time.Duration
	Model         string

	// ClusterPart runs this process as one cluster worker: the input is
	// a splitter stream (pcapng frames stamped with global sequence
	// numbers), media observations are exported to <part>.obs, the
	// checkpoint chain base defaults to <part>.state.zlcp, and the status
	// JSON is mirrored to <part>.status.json for the aggregator.
	ClusterPart string

	// fs remembers the FlagSet Register installed on, so the driver can
	// distinguish an explicitly set flag from its default. Nil when the
	// Flags struct was built directly (tests, embedders).
	fs *flag.FlagSet

	// engineHook, when set, observes the engine right after creation or
	// restore. Tests use it to install panic hooks; production never
	// sets it.
	engineHook func(core.Engine)
}

// Register installs the shared analysis flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Input, "i", "", "input pcap path")
	fs.StringVar(&f.Proto, "proto", "auto", "protocol plugins to decode: auto (all), a name (zoom, webrtc), or a comma list; probe order is always canonical")
	fs.IntVar(&f.Workers, "workers", 1, "analysis shards: 1 = sequential, 0 = one per CPU")
	fs.IntVar(&f.MaxFlows, "max-flows", 0, "cap concurrent flow-table entries; packets refused at the cap are counted (0 = unlimited)")
	fs.IntVar(&f.MaxStreams, "max-streams", 0, "cap concurrent media-stream records (0 = unlimited)")
	fs.DurationVar(&f.FlowTTL, "flow-ttl", 0, "evict per-flow state idle longer than this, folding it into the report (0 = never)")
	fs.StringVar(&f.QuarantinePath, "quarantine", "", "write frames whose processing panicked to this pcap for offline dissection")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "checkpoint chain base path: engine state is written as records <path>.NNNNNNNN.{full,delta}.zlcp (atomic write-rename, never over an existing record) every -checkpoint-interval of trace time and on shutdown")
	fs.DurationVar(&f.CheckpointInterval, "checkpoint-interval", time.Minute, "trace-clock cadence between periodic full checkpoints (with -checkpoint)")
	fs.DurationVar(&f.CheckpointDelta, "checkpoint-delta", 0, "trace-clock cadence for incremental (delta) checkpoint records between fulls (0 = the chain holds full records only)")
	fs.IntVar(&f.CheckpointKeep, "checkpoint-keep", 2, "full checkpoint records to retain for crash fallback (older records are pruned); restore walks back through them when the newest is torn or corrupt")
	fs.StringVar(&f.Restore, "restore", "", "resume from a checkpoint: the chain base path given to -checkpoint, or one checkpoint file; the worker count comes from the checkpoint")
	fs.BoolVar(&f.Shed, "shed", false, "under overload, drop packet batches with accounting when an analysis shard's queue is full instead of stalling ingest (parallel engines; shed counts surface in the report and status line)")
	fs.IntVar(&f.MaxFinished, "max-finished", 0, "cap archived finished streams; at the cap the oldest are dropped and counted (0 = unlimited)")
	fs.DurationVar(&f.Rotate, "rotate", 0, "close and emit the report window every this much trace time, writing <rotate-out>-NNNN.json per window (0 = one report)")
	fs.StringVar(&f.RotateOut, "rotate-out", "zoomlens-window", "path prefix for rotated window report files")
	fs.StringVar(&f.Features, "features", "", "stream per-stream feature rows (header-free QoE inputs) as versioned CSV to this path; \"-\" = stdout")
	fs.DurationVar(&f.FeatureWindow, "feature-window", time.Second, "feature aggregation window on the capture clock (with -features or -model)")
	fs.StringVar(&f.Model, "model", "", "QoE model JSON (train one with zoomfeatures -train): classify each video feature window with it; predictions surface as zoomlens_qoe_* metrics and qoe_prediction JSON lines on the snapshot sink")
	fs.StringVar(&f.ClusterPart, "cluster-part", "", "run as one cluster worker under this path prefix: export media observations to <prefix>.obs, default the checkpoint chain base to <prefix>.state.zlcp, and mirror the status JSON to <prefix>.status.json (input should be a zoomsplit stream; requires -workers 1)")
	f.Obs = RegisterMetrics(fs)
	fs.DurationVar(&f.Obs.SnapshotInterval, "snapshot-interval", 0, "emit per-meeting QoE snapshots as JSON lines every interval of trace time (0 = disabled)")
	fs.StringVar(&f.Obs.SnapshotOut, "snapshot-out", "", "snapshot destination path (empty or \"-\" = stderr)")
	f.fs = fs
	return f
}

// workersExplicit reports whether -workers was set on the command line
// (as opposed to left at its default). Without a FlagSet to consult, a
// non-default value is treated as explicit.
func (f *Flags) workersExplicit() bool {
	if f.fs != nil {
		set := false
		f.fs.Visit(func(fl *flag.Flag) {
			if fl.Name == "workers" {
				set = true
			}
		})
		return set
	}
	return f.Workers != 1
}

// Run is one completed analysis run: the engine has ingested the whole
// input (or the prefix before an interrupt/cut) and Finish has run.
// Callers print their report from Analyzer, with the standard defers:
//
//	defer run.Close()             // observability teardown + trace report
//	defer run.EmitStatus()        // status JSON, last line on stderr
//	defer run.Stage("report")()   // report stage timing
type Run struct {
	// Engine is the analysis engine that ingested the capture.
	Engine core.Engine
	// Analyzer is the merged sequential-equivalent result.
	Analyzer *core.Analyzer
	// Setup is the run's observability state.
	Setup *ObsSetup
	// Interrupted reports a SIGINT/SIGTERM graceful stop: the report
	// covers every packet read before the signal.
	Interrupted bool
	// Restored reports that the run resumed from a -restore checkpoint.
	Restored bool
	// Rotations counts report windows closed by -rotate. With rotation
	// on, the final report (run.Analyzer) covers only the last window;
	// earlier windows live in the <rotate-out>-NNNN.json files. Only
	// windows whose report file actually landed are counted; failed
	// writes count under RotateFailures instead.
	Rotations int
	// RotateFailures counts report windows whose file write failed (the
	// window's state is still folded forward into the run).
	RotateFailures int
	// RestoreFallbacks counts torn/corrupt checkpoint records the restore
	// path skipped before finding a valid state.
	RestoreFallbacks int
	// FeatureRows counts streaming feature rows drained to the -features
	// CSV (and through the -model QoE model).
	FeatureRows int
	// Predictions counts video rows the -model QoE model classified.
	Predictions int

	// Checkpointer is the run's checkpoint chain and the home of its
	// record counts (Fulls, Deltas, TmpCleaned); nil without -checkpoint.
	Checkpointer *Checkpointer

	quarantine  *core.Quarantine
	quarPath    string
	quarFlushed bool
	statusPath  string
	ckm         *obs.CheckpointMetrics
}

// cadence is one trace-clock schedule: due reports, packet by packet,
// whether another `every` of capture time has passed. The first
// timestamp arms it; after that it fires on the first packet at or past
// the deadline and moves the deadline past that packet by whole
// multiples of every, so a quiet stretch or a far-forward timestamp
// fires once, not once per missed period, in constant time. A timestamp
// behind the deadline (a backward clock jump included) never fires and
// never moves it. The zero every never fires.
type cadence struct {
	every time.Duration
	next  time.Time
}

// due is small enough to inline, so a schedule that is off costs the
// read loop one compare per record, not a call.
func (c *cadence) due(ts time.Time) bool { return c.every > 0 && c.fire(ts) }

// fire is due for a schedule that is on.
func (c *cadence) fire(ts time.Time) bool {
	switch {
	case c.next.IsZero():
		c.rearm(ts)
		return false
	case ts.Before(c.next):
		return false
	}
	// Sub saturates when the jump exceeds time.Duration's range; the
	// deadline then restarts from ts itself.
	if behind := ts.Sub(c.next); behind > math.MaxInt64-c.every {
		c.rearm(ts)
	} else {
		c.next = c.next.Add((behind/c.every + 1) * c.every)
	}
	return true
}

// rearm sets the deadline one full period after ts.
func (c *cadence) rearm(ts time.Time) { c.next = ts.Add(c.every) }

// clusterEngine is the engine-side surface a cluster worker needs: an
// observation sink for the aggregator's reconciliation replay, and
// sequence-stamped ingest carrying the splitter's global packet ids.
type clusterEngine interface {
	SetClusterSink(func(core.ClusterObs)) error
	IngestSeq(recs []pcap.Record)
}

// Run builds an engine from the flags, streams the whole input through
// it with borrowed (zero-copy) record buffers, and finishes it.
// SIGINT/SIGTERM stops reading gracefully — every packet seen is
// finalized and the status line marks the report partial; a capture cut
// mid-record degrades the same way. zoomNets parameterizes the capture
// filter (the caller passes its Zoom address ranges, keeping this
// package free of policy).
func (f *Flags) Run(zoomNets []netip.Prefix) (*Run, error) {
	if f.Input == "" {
		if f.Restore != "" {
			// Render-only: restore the checkpoint and finish without
			// ingesting anything — how a report is read back out of an
			// aggregated cluster state (or any saved checkpoint).
			return f.RunFrom(zoomNets, func(*pcap.Record) error { return io.EOF }, func() bool { return false })
		}
		return nil, errors.New("missing -i input pcap")
	}
	var file *os.File
	if f.Input == "-" {
		file = os.Stdin
	} else {
		var err error
		file, err = os.Open(f.Input)
		if err != nil {
			return nil, err
		}
		defer file.Close()
	}
	// The stream header is read lazily, inside the first next() call:
	// RunFrom brings observability up first, and with a stdin input the
	// first bytes may arrive long after startup — the metrics endpoint
	// must already be scrapeable (and announced on stderr) while the run
	// waits.
	var stream *pcap.Stream
	next := func(recs []pcap.Record) (int, error) {
		if stream == nil {
			var err error
			stream, err = pcap.OpenStream(file)
			if err != nil {
				return 0, err
			}
		}
		return stream.NextBatch(recs)
	}
	truncated := func() bool { return stream != nil && stream.Truncated() }
	return f.runFrom(zoomNets, next, truncated)
}

// RunFrom is Run with the record source abstracted: next fills rec with
// the next record (returning io.EOF at end of input; rec.Data may
// borrow a buffer valid only until the following call) and truncated
// reports whether the source was cut mid-record. It powers both the
// file/stdin path (Run) and synthetic sources — the soak harness drives
// a generated workload through the exact production pipeline, signals,
// checkpoints, and rotation included. Each record is a batch of its own,
// so the signal is polled before every record.
func (f *Flags) RunFrom(zoomNets []netip.Prefix, next func(*pcap.Record) error, truncated func() bool) (*Run, error) {
	return f.runFrom(zoomNets, func(recs []pcap.Record) (int, error) {
		if err := next(&recs[0]); err != nil {
			return 0, err
		}
		return 1, nil
	}, truncated)
}

// runFrom is the read loop behind Run and RunFrom: next reads a batch of
// records as pcap.Stream.NextBatch does (n > 0 with a nil error, io.EOF
// at the end; each rec.Data valid until the following call).
func (f *Flags) runFrom(zoomNets []netip.Prefix, next func([]pcap.Record) (int, error), truncated func() bool) (*Run, error) {
	protos, err := rtcproto.ParseSet(f.Proto)
	if err != nil {
		return nil, err
	}
	setup, err := f.Obs.Apply()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		ZoomNetworks: zoomNets,
		Protos:       protos,
		MaxFlows:     f.MaxFlows,
		MaxStreams:   f.MaxStreams,
		MaxFinished:  f.MaxFinished,
		FlowTTL:      f.FlowTTL,
		Shed:         f.Shed,
		Obs:          setup.Registry,
		Tracer:       setup.Tracer,
	}
	if f.ClusterPart != "" {
		// A cluster worker's stream was already classified by the
		// splitter; keeping every delivered frame preserves the exact
		// accounting split a single engine's dispatch path would produce.
		cfg.PreFiltered = true
	}
	var fsink *featureSink
	if f.Features != "" || f.Model != "" {
		if f.ClusterPart != "" {
			// A worker's observations ride the cluster sink instead of the
			// local reconciliation path, so its windower would see nothing;
			// the aggregator builds the rows (zoomagg -features).
			setup.Close()
			return nil, errors.New("engine: -features/-model are unavailable with -cluster-part; feature rows for a cluster run come from zoomagg -features")
		}
		fw := f.FeatureWindow
		if fw <= 0 {
			fw = time.Second
		}
		cfg.FeatureWindow = fw
		fsink, err = newFeatureSink(f, setup, fw)
		if err != nil {
			setup.Close()
			return nil, err
		}
	}
	run := &Run{Setup: setup, quarPath: f.QuarantinePath}
	run.ckm = obs.NewCheckpointMetrics(setup.Registry)
	if f.QuarantinePath != "" {
		run.quarantine = core.NewQuarantine(0)
		cfg.Quarantine = run.quarantine
	}
	// In cluster-part mode the shutdown checkpoint is the worker's
	// contribution to the merged report, so it defaults on.
	ckPath := f.Checkpoint
	if ckPath == "" && f.ClusterPart != "" {
		ckPath = f.ClusterPart + ".state.zlcp"
	}
	if ckPath != "" {
		run.Checkpointer = NewCheckpointer(ckPath, f.CheckpointKeep, run.ckm)
	}
	if f.ClusterPart != "" {
		run.statusPath = f.ClusterPart + ".status.json"
	}
	// Results are byte-identical at any worker count (one worker is the
	// sequential engine). A restored run takes its worker count from the
	// checkpoint — shard-partitioned state only lines up at the count it
	// was saved at.
	var eng core.Engine
	if f.Restore != "" {
		var fallbacks int
		eng, fallbacks, err = RestoreEngine(f.Restore, cfg, run.ckm)
		if err != nil {
			fsink.discard()
			setup.Close()
			return nil, err
		}
		run.Restored = true
		run.RestoreFallbacks = fallbacks
		run.ckm.Restored.Inc()
		if fallbacks > 0 {
			log.Printf("restore: skipped %d torn or corrupt checkpoint record(s)", fallbacks)
		}
		// The checkpoint's worker count always wins over -workers; warn
		// whenever the flag was explicitly set to something else (a
		// restored sequential engine counts as 1 worker).
		if f.workersExplicit() {
			ckWorkers := 1
			if pa, ok := eng.(*core.ParallelAnalyzer); ok {
				ckWorkers = pa.Workers()
			}
			if ckWorkers != f.Workers {
				log.Printf("restore: checkpoint was taken at %d worker(s); ignoring -workers=%d", ckWorkers, f.Workers)
			}
		}
	} else {
		eng = core.NewParallelAnalyzer(cfg, f.Workers)
	}
	run.Engine = eng
	if f.engineHook != nil {
		f.engineHook(eng)
	}

	// Cluster-part wiring: divert media observations to <prefix>.obs
	// (append mode, so a migrated worker's second life extends the same
	// log) and stamp ingest with the splitter's global sequence numbers.
	ingest := eng.Ingest
	var obsLog *cluster.ObsWriter
	var obsFile *os.File
	closeObsLog := func() {
		if obsLog == nil {
			return
		}
		if err := obsLog.Flush(); err != nil {
			log.Printf("cluster obs log: %v", err)
		}
		if err := obsFile.Close(); err != nil {
			log.Printf("cluster obs log: %v", err)
		}
		obsLog, obsFile = nil, nil
	}
	if f.ClusterPart != "" {
		ce, ok := eng.(clusterEngine)
		var cerr error
		if !ok {
			cerr = errors.New("engine: this engine cannot run as a cluster part")
		} else {
			obsFile, cerr = os.OpenFile(f.ClusterPart+".obs", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if cerr == nil {
				obsLog = cluster.NewObsWriter(obsFile)
				cerr = ce.SetClusterSink(obsLog.Add)
			}
		}
		if cerr != nil {
			core.Discard(eng)
			if obsFile != nil {
				obsFile.Close()
			}
			setup.Close()
			return nil, cerr
		}
		var localSeq uint64
		ingest = func(recs []pcap.Record) {
			for i := range recs {
				if !recs[i].HasPacketID {
					// Not a splitter stream (plain pcap, or pcapng without
					// epb_packetid): a local 1-based counter preserves
					// this worker's own order. Cross-worker order needs
					// the splitter's ids.
					localSeq++
					recs[i].PacketID = localSeq
				}
			}
			ce.IngestSeq(recs)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var lastTS time.Time
	var recs [pcap.BatchLen]pcap.Record
	// Rotation, snapshot, checkpoint, and feature-drain schedules run on
	// the trace clock, armed by the first packet — so offline replays
	// emit exactly what a live tap would have. Full checkpoints run on
	// -checkpoint-interval; delta records on the (typically much
	// shorter) -checkpoint-delta cadence between them.
	rotate := cadence{every: f.Rotate}
	// Per-meeting QoE snapshots: one JSON line per meeting per firing,
	// the interval doubling as the trailing window.
	snap := cadence{every: f.Obs.SnapshotInterval}
	snapEnc := json.NewEncoder(setup.snapW)
	var snapErr error
	emitSnapshots := func(at time.Time) {
		for _, ms := range eng.Snapshot(at, f.Obs.SnapshotInterval) {
			if err := snapEnc.Encode(ms); err != nil && snapErr == nil {
				snapErr = err
			}
		}
	}
	var winStart time.Time
	var full, delta, drain cadence
	if run.Checkpointer != nil {
		full.every, delta.every = f.CheckpointInterval, f.CheckpointDelta
	}
	if fsink != nil {
		drain.every = fsink.every
	}
	scheduled := rotate.every > 0 || snap.every > 0 || full.every > 0 || delta.every > 0 || drain.every > 0
	// settled: nothing has touched the engine since the last periodic
	// record started. A rotation comes before the record it fires at is
	// ingested, and a snapshot or drain after that record but before any
	// checkpoint at it, so watching what is ingested is enough.
	settled := false
	feed := func(recs []pcap.Record) {
		if len(recs) > 0 {
			settled = false
			ingest(recs)
		}
	}
	ingestDone := setup.Stage("ingest")
	for {
		// Polled before every batch, and a batch holds only records that
		// had arrived when it was read, so a sparse live source stops at
		// the next record after a signal. A length read takes no lock (a
		// select with a default case would take the channel's); the signal
		// stays queued for the check after the loop.
		if len(sig) > 0 {
			run.Interrupted = true
			break
		}
		n, err := next(recs[:])
		if err == io.EOF {
			break
		}
		if err != nil {
			// Tear the run down completely: a live parallel engine holds
			// shard goroutines that must not outlive a failed run. The
			// panic quarantine still flushes — the frames that poisoned
			// the run up to this point are exactly the ones worth
			// dissecting offline.
			signal.Stop(sig)
			if run.Checkpointer != nil {
				run.ckptErr(run.Checkpointer.Wait())
			}
			core.Discard(eng)
			run.flushQuarantine()
			closeObsLog()
			if cerr := fsink.close(); cerr != nil {
				log.Print(cerr)
			}
			setup.Close()
			return nil, err
		}
		batch := recs[:n]
		if !scheduled {
			ingest(batch)
			continue
		}
		// The batch is cut into runs at every record where a schedule
		// fires, so each rotation, snapshot and checkpoint lands on the
		// same record boundary as with one record per batch.
		start := 0
		for i := range batch {
			ts := batch[i].Timestamp
			// Rotate before ingesting: the packet that crosses the
			// boundary opens the next window.
			if winStart.IsZero() {
				winStart = ts
			}
			if rotate.due(ts) {
				feed(batch[start:i])
				start = i
				run.rotateWindow(eng, winStart, ts, f.RotateOut)
				winStart = ts
			}
			lastTS = ts
			// The rest fire after the record. A full re-anchors the
			// chain, so it pushes the next delta a full cadence out
			// instead of writing one right after it.
			snapDue, drainDue, fullDue := snap.due(ts), drain.due(ts), full.due(ts)
			if fullDue {
				delta.rearm(ts)
			}
			deltaDue := delta.due(ts)
			if !snapDue && !drainDue && !fullDue && !deltaDue {
				continue
			}
			feed(batch[start : i+1])
			start = i + 1
			if snapDue {
				emitSnapshots(ts)
			}
			if drainDue {
				fsink.drain(eng.DrainFeatures())
			}
			// A periodic record costs the read loop its encode; the file
			// lands behind it (see Checkpointer), and a write that fails
			// surfaces at the next record, which is then a full.
			if fullDue {
				run.ckptErr(run.Checkpointer.StartFull(eng))
			}
			if deltaDue {
				run.ckptErr(run.Checkpointer.StartDelta(eng))
			}
			settled = fullDue || deltaDue
		}
		feed(batch[start:])
	}
	ingestDone()
	select {
	case <-sig:
		run.Interrupted = true
	default:
	}
	signal.Stop(sig)
	// The shutdown checkpoint lands before Finish so a parallel run's
	// file keeps its parallel payload (restorable at the same worker
	// count); it covers every packet ingested, interrupt included. It is
	// always a full snapshot — the next start restores from it alone —
	// unless the last periodic record already is one: a full that landed,
	// with nothing touching the engine since, holds exactly this state.
	if ck := run.Checkpointer; ck != nil {
		run.ckptErr(ck.Wait())
		if !settled || !ck.fullLanded {
			run.ckptErr(ck.WriteFull(eng))
		}
	}
	eng.Finish()
	// Finish closed every open feature window; the final drain picks the
	// partials up, completing the CSV.
	if fsink != nil {
		fsink.drain(eng.DrainFeatures())
		if err := fsink.close(); err != nil {
			log.Print(err)
		}
		run.FeatureRows = fsink.rows
		run.Predictions = fsink.predictions
	}
	// Finishing emits no observations, so the log is complete here; it
	// must be on disk before the aggregator can be pointed at it.
	closeObsLog()
	// One final snapshot at the end of the capture.
	if snap.every > 0 && !lastTS.IsZero() {
		emitSnapshots(lastTS)
	}
	if snapErr != nil {
		log.Printf("snapshots: %v", snapErr)
	}
	run.Analyzer = eng.Result()
	if truncated() {
		run.Analyzer.Truncated = true
	}
	return run, nil
}

// ckptErr logs a failed checkpoint write (the Checkpointer counted it).
// Not fatal — losing one checkpoint must not kill the tap.
func (r *Run) ckptErr(err error) {
	if err != nil {
		log.Printf("checkpoint %s: %v", r.Checkpointer.path, err)
	}
}

// windowReport is the JSON written per rotated window: the window's
// bounds on the trace clock plus its full capture roll-up.
type windowReport struct {
	Window  int          `json:"window"`
	Start   time.Time    `json:"start"`
	End     time.Time    `json:"end"`
	Summary core.Summary `json:"summary"`
}

// rotateWindow closes the current report window and writes its roll-up
// to <prefix>-NNNN.json. Report-file failures are logged and counted,
// never fatal — and they do not consume a window index or count as a
// rotation, so the Rotations counter (and the NNNN numbering) tracks
// reports that actually landed on disk.
func (r *Run) rotateWindow(eng core.Engine, start, end time.Time, prefix string) {
	win := eng.Rotate(end)
	path := fmt.Sprintf("%s-%04d.json", prefix, r.Rotations)
	data, err := json.Marshal(windowReport{
		Window: r.Rotations, Start: start, End: end, Summary: win.Summary(),
	})
	if err == nil {
		err = atomicWrite(path, append(data, '\n'))
	}
	if err != nil {
		log.Printf("rotate %s: %v", path, err)
		r.RotateFailures++
		r.ckm.RotateFailures.Inc()
		return
	}
	r.Rotations++
	r.ckm.Rotations.Inc()
}

// Stage times one CLI stage under the run's tracer (no-op when tracing
// is off). Use as: defer run.Stage("report")().
func (r *Run) Stage(name string) func() { return r.Setup.Stage(name) }

// Close tears the observability surface down. Register it first so it
// runs after EmitStatus, which has printed the stage report already.
func (r *Run) Close() { r.Setup.Close() }

// EmitStatus prints one JSON object on stderr describing how the run
// ended: whether the report is partial (interrupted or truncated input)
// and the hardening counters an operator needs to trust it. Under -trace
// the stage report comes first, so the object stays the last stderr
// line. It also flushes the panic quarantine when one was requested.
func (r *Run) EmitStatus() {
	s := r.Analyzer.Counters() // the line has no meetings field
	reason := ""
	switch {
	case r.Interrupted:
		reason = "interrupted"
	case s.Truncated:
		reason = "truncated_capture"
	}
	quarantined, quarDropped := r.flushQuarantine()
	var fulls, deltas, tmpCleaned int // zero for a run without -checkpoint
	if ck := r.Checkpointer; ck != nil {
		fulls, deltas, tmpCleaned = ck.Fulls, ck.Deltas, ck.TmpCleaned
	}
	// Per-plugin decode counters mirror the zoomlens_proto_* metrics so
	// a cluster aggregator (or an operator tailing stderr) sees the
	// protocol mix without a metrics scrape.
	protoFields := ""
	for i, v := range s.ProtoDecoded {
		protoFields += fmt.Sprintf(`,"proto_decoded_%s":%d`, rtcproto.NameOf(uint8(i)), v)
	}
	line := fmt.Sprintf(
		`{"partial":%t,"reason":%q,"packets":%d,"flows":%d,"streams":%d,"evicted_flows":%d,"evicted_streams":%d,"rejected_packets":%d,"panics_recovered":%d,"quarantined":%d,"quarantine_dropped":%d,"shed_packets":%d,"shed_bytes":%d,"truncated":%t,"checkpoints":%d,"delta_checkpoints":%d,"restore_fallbacks":%d,"tmp_cleaned":%d,"restored":%t,"rotations":%d,"rotate_failures":%d%s,"proto_undecodable":%d,"stun_port_nonstun":%d}`,
		r.Interrupted || s.Truncated, reason, s.Packets, s.Flows, s.Streams,
		s.EvictedFlows, s.EvictedStreams, s.RejectedPackets, s.PanicsRecovered, quarantined, quarDropped,
		s.ShedPackets, s.ShedBytes, s.Truncated, fulls, deltas, r.RestoreFallbacks, tmpCleaned,
		r.Restored, r.Rotations, r.RotateFailures, protoFields, s.Undecodable, s.STUNPortNonSTUN)
	r.Setup.printStages()
	fmt.Fprintln(os.Stderr, line)
	if r.statusPath != "" {
		if err := atomicWrite(r.statusPath, []byte(line+"\n")); err != nil {
			log.Printf("status file: %v", err)
		}
	}
}

// flushQuarantine writes the quarantined frames to the -quarantine pcap
// (once per run — a mid-run teardown may have flushed already) and
// returns the quarantine counters. It runs both from EmitStatus and
// from the read-error teardown path, so frames captured before a
// source failure are never silently discarded with the engine.
func (r *Run) flushQuarantine() (quarantined, dropped uint64) {
	if r.quarantine == nil {
		return 0, 0
	}
	quarantined, dropped = r.quarantine.Total(), r.quarantine.Dropped()
	if quarantined == 0 || r.quarFlushed {
		return quarantined, dropped
	}
	r.quarFlushed = true
	qf, err := os.Create(r.quarPath)
	if err != nil {
		log.Print(err)
		return quarantined, dropped
	}
	if err := r.quarantine.WritePCAP(qf); err != nil {
		log.Print(err)
	}
	qf.Close()
	return quarantined, dropped
}
