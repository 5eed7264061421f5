package main

// End-to-end measurement: the zoomqoe binary built from this checkout,
// run as a child process on a generated, page-cache-warm capture file.
// Closed loop, offline replay: the process reads as fast as it can
// consume, GOMAXPROCS is left at the machine's CPU count, and tracing is
// off. Wall time, user+sys CPU and peak RSS come from the child's
// ProcessState.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times one invocation repeats set-up (build +
// generate); setup_s is their median, which also takes the cold first
// build of a fresh checkout out of the figure.
const setupReps = 5

// minTimedRuns is the floor on timed process runs, whatever --seconds.
const minTimedRuns = 3

// bench is one invocation's environment.
type bench struct {
	root  string // checkout root (holds go.mod and cmd/zoomqoe)
	work  string // scratch directory, removed at exit
	out   string // span files and result JSON
	bin   string // built zoomqoe
	sizes sizes
	seed  int64
	// trace is the current generated capture, generation its ordinal.
	trace      string
	generation int
	logf       func(format string, args ...any)
}

// buildZoomqoe builds the program under test from the checkout.
func (b *bench) buildZoomqoe() error {
	cmd := exec.Command("go", "build", "-o", b.bin, "./cmd/zoomqoe")
	cmd.Dir = b.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building zoomqoe: %v\n%s", err, out)
	}
	return nil
}

// setup builds the binary and generates w's capture once, replacing the
// previous one. Each capture gets a fresh file name and the old file is
// unlinked first: truncating and rewriting one path makes ext4 flush the
// new data to disk on close (auto_da_alloc), and that writeback then runs
// underneath the timed processes. An unlinked file's dirty pages are just
// dropped.
func (b *bench) setup(w workload) (traceInfo, time.Duration, error) {
	start := time.Now()
	if err := b.buildZoomqoe(); err != nil {
		return traceInfo{}, 0, err
	}
	if b.trace != "" {
		if err := os.Remove(b.trace); err != nil {
			return traceInfo{}, 0, err
		}
	}
	b.generation++
	b.trace = filepath.Join(b.work, fmt.Sprintf("trace-%d.pcap", b.generation))
	tr, err := w.gen(b.trace, b.seed, b.sizes)
	return tr, time.Since(start), err
}

// status is the part of zoomqoe's closing stderr JSON line the checks use.
type status struct {
	Partial          bool `json:"partial"`
	Packets          int  `json:"packets"`
	EvictedStreams   int  `json:"evicted_streams"`
	Checkpoints      int  `json:"checkpoints"`
	DeltaCheckpoints int  `json:"delta_checkpoints"`
	Rotations        int  `json:"rotations"`
}

// procRun is one finished zoomqoe process.
type procRun struct {
	wall, cpu time.Duration
	maxRSSKB  int64
	stdoutSHA string
	status    status
	dir       string // checkpoint chain and window reports
}

// runZoomqoe runs one process to completion in a fresh output directory.
// The process is started through a fresh copy of this binary in spawn
// mode (see spawn), which reports the child's wall time and rusage on
// fd 3.
func (b *bench) runZoomqoe(w workload, tr traceInfo, workers int) (procRun, error) {
	dir := filepath.Join(b.work, "run")
	if err := os.RemoveAll(dir); err != nil {
		return procRun{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return procRun{}, err
	}
	self, err := os.Executable()
	if err != nil {
		return procRun{}, err
	}
	usageR, usageW, err := os.Pipe()
	if err != nil {
		return procRun{}, err
	}
	defer usageR.Close()
	h := sha256.New()
	var stderr bytes.Buffer
	cmd := exec.Command(self, append([]string{spawnArg, b.bin}, w.args(tr, workers, dir)...)...)
	cmd.Stdout = h
	cmd.Stderr = &stderr
	cmd.ExtraFiles = []*os.File{usageW}
	err = cmd.Run()
	usageW.Close()
	r := procRun{stdoutSHA: hex.EncodeToString(h.Sum(nil)), dir: dir}
	if err != nil {
		return r, fmt.Errorf("zoomqoe: %v\n%s", err, tail(stderr.String(), 5))
	}
	var u usage
	if err := json.NewDecoder(usageR).Decode(&u); err != nil {
		return r, fmt.Errorf("reading the child's resource usage: %v", err)
	}
	r.wall, r.cpu, r.maxRSSKB = u.Wall, u.CPU, u.MaxRSSKB
	lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.status); err != nil {
		return r, fmt.Errorf("zoomqoe status line: %v", err)
	}
	return r, nil
}

// spawnArg as first argument turns this binary into a process launcher.
const spawnArg = "-spawn-and-measure"

// usage is what the launcher reports about the process it ran.
type usage struct {
	Wall     time.Duration `json:"wall_ns"`
	CPU      time.Duration `json:"cpu_ns"`
	MaxRSSKB int64         `json:"max_rss_kb"`
}

// spawn runs argv as a child with this process's stdout and stderr,
// writes its usage as JSON to fd 3 and returns its exit code. It exists
// because Linux seeds a new program's ru_maxrss with the peak RSS of the
// address space that exec'd it: started directly from the harness, which
// has just run a simulator, a 13 MB zoomqoe run reads as the harness's
// own peak. A fresh launcher has no peak to hand down.
func spawn(argv []string) int {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	ps := cmd.ProcessState
	if ps == nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 127
	}
	u := usage{Wall: wall, CPU: ps.UserTime() + ps.SystemTime(), MaxRSSKB: ps.SysUsage().(*syscall.Rusage).Maxrss}
	if err := json.NewEncoder(os.NewFile(3, "usage")).Encode(u); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 127
	}
	return ps.ExitCode()
}

func tail(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// checkRun applies the output checks to one process run; refSHA is the
// report every run on this file must reproduce byte for byte.
func checkRun(w workload, tr traceInfo, r procRun, refSHA string) error {
	// With rotation on, the status line covers the last report window and
	// the window files the ones before it; together they partition the file.
	chain := chainFiles(r.dir)
	switch packets := r.status.Packets + chain.windowPackets; {
	case r.status.Partial:
		return fmt.Errorf("report marked partial")
	case packets != tr.Packets:
		return fmt.Errorf("status line and window reports count %d packets, generator wrote %d", packets, tr.Packets)
	case r.stdoutSHA != refSHA:
		return fmt.Errorf("report differs from the reference run (sha256 %.12s vs %.12s)", r.stdoutSHA, refSHA)
	}
	if !w.continuous {
		return nil
	}
	switch {
	case r.status.Checkpoints < 1 || r.status.DeltaCheckpoints < 1 || chain.windows < 1:
		// Counted as written, not as left on disk: pruning keeps two
		// generations, so the deltas may all be gone by shutdown.
		return fmt.Errorf("continuous run wrote %d full and %d delta checkpoints and %d window reports; want at least one of each",
			r.status.Checkpoints, r.status.DeltaCheckpoints, chain.windows)
	case r.status.EvictedStreams+chain.windowEvicted == 0:
		return fmt.Errorf("continuous run evicted no streams")
	}
	return nil
}

// chainStats counts what a continuous run left on disk.
type chainStats struct {
	fulls, deltas, windows int
	bytes                  int64 // checkpoint files only
	// What the window reports account for; the status line covers only
	// the window open at shutdown.
	windowPackets, windowEvicted int
}

func chainFiles(dir string) chainStats {
	var c chainStats
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		switch name := e.Name(); {
		case strings.HasSuffix(name, ".full.zlcp"):
			c.fulls++
			c.bytes += info.Size()
		case strings.HasSuffix(name, ".delta.zlcp"):
			c.deltas++
			c.bytes += info.Size()
		case strings.HasPrefix(name, "win-"):
			c.windows++
			var report struct {
				Summary struct{ Packets, EvictedStreams int }
			}
			if data, err := os.ReadFile(filepath.Join(dir, name)); err == nil && json.Unmarshal(data, &report) == nil {
				c.windowPackets += report.Summary.Packets
				c.windowEvicted += report.Summary.EvictedStreams
			}
		}
	}
	return c
}

// result is what one invocation reports.
type result struct {
	Workload  string             `json:"workload"`
	Trace     traceInfo          `json:"trace_file"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Spread    map[string]summary `json:"spread"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) attempt(what string, err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Failures = append(r.Failures, what+": "+err.Error())
	}
}

// runE2E measures one workload end to end: setupReps set-ups, one
// untimed reference run that also warms the page cache, then timed runs
// until `seconds` have passed.
func (b *bench) runE2E(w workload, seconds int) (*result, error) {
	if w.workers > runtime.NumCPU() {
		return nil, fmt.Errorf("workload %s skipped: needs %d CPUs, machine has %d", w.name, w.workers, runtime.NumCPU())
	}
	res := &result{Workload: w.name}
	var setups []float64
	var tr traceInfo
	for i := 0; i < setupReps; i++ {
		again, took, err := b.setup(w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i > 0 {
			var differ error
			if again.SHA256 != tr.SHA256 {
				differ = fmt.Errorf("seed %d gave two different files (%.12s, %.12s)", b.seed, tr.SHA256, again.SHA256)
			}
			res.attempt("generator determinism", differ)
		}
		tr = again
	}
	res.Trace = tr
	b.logf("%s: %d packets, %d bytes, span %s, sha256 %.16s", w.name, tr.Packets, tr.Bytes, tr.Span, tr.SHA256)

	// The reference is always the sequential report: on campus_par it
	// carries the byte-identical seq == parallel invariant.
	ref, err := b.runZoomqoe(w, tr, 1)
	if err == nil {
		err = checkRun(w, tr, ref, ref.stdoutSHA)
	}
	res.attempt("reference run", err)

	var wall, cpu, rss []float64
	for start := time.Now(); len(wall) < minTimedRuns || time.Since(start) < time.Duration(seconds)*time.Second; {
		r, err := b.runZoomqoe(w, tr, w.workers)
		if err == nil {
			err = checkRun(w, tr, r, ref.stdoutSHA)
		}
		res.attempt(fmt.Sprintf("timed run %d", len(wall)+1), err)
		if err != nil {
			// A failed run's timings mean nothing, and the next would
			// fail the same way.
			break
		}
		wall = append(wall, r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		rss = append(rss, float64(r.maxRSSKB)/1024)
	}
	if len(wall) == 0 {
		return nil, fmt.Errorf("%s: no timed run succeeded: %s", w.name, strings.Join(res.Failures, "; "))
	}
	pkts := float64(tr.Packets)
	res.Spread = map[string]summary{
		"wall_s": summarize(wall), "cpu_s": summarize(cpu),
		"peak_rss_mb": summarize(rss), "setup_s": summarize(setups),
	}
	// Time on a shared host is the program's cost plus whatever the
	// neighbours add, and the second term is never negative: the fastest
	// run is the steadiest estimate of the first (ROADMAP 1(c): best of N
	// with the spread recorded). Memory has no such one-sided noise.
	res.Metrics = map[string]metric{
		"pkts_per_s":     {pkts / res.Spread["wall_s"].Min, "1/s"},
		"cpu_us_per_pkt": {res.Spread["cpu_s"].Min / pkts * 1e6, "us"},
		"peak_rss_mb":    {res.Spread["peak_rss_mb"].Median, "MB"},
		"setup_s":        {res.Spread["setup_s"].Median, "s"},
	}
	return res, nil
}
