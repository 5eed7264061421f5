package engine

// Regression tests for the driver accounting fixes that ride along with
// cluster mode: rotation failures counted (not silently absorbed into
// the success counter), the panic quarantine flushed on mid-run source
// failures, shed_bytes/rotate_failures present in the status JSON, and
// the restore worker-count warning firing for every explicitly-set
// -workers that the checkpoint overrides.

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zoomlens/internal/core"
	"zoomlens/internal/pcap"
)

// TestRotateFailureAccounting points -rotate-out into a directory that
// does not exist: every window write fails, so Rotations must stay 0
// (it counts reports that landed) while RotateFailures counts each
// failed window.
func TestRotateFailureAccounting(t *testing.T) {
	dir := t.TempDir()
	next, nets := genSource(t, 2000)
	f := &Flags{
		Obs:       &ObsFlags{},
		Workers:   1,
		Rotate:    300 * time.Millisecond,
		RotateOut: filepath.Join(dir, "missing-dir", "window"),
	}
	run, err := f.RunFrom(nets, next, func() bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if run.RotateFailures == 0 {
		t.Fatal("no rotate failures recorded against an unwritable -rotate-out")
	}
	if run.Rotations != 0 {
		t.Errorf("Rotations = %d with every window write failing, want 0", run.Rotations)
	}

	// The status JSON carries both new counters (shed_bytes and
	// rotate_failures), mirrored to a file in cluster-part style.
	run.statusPath = filepath.Join(dir, "status.json")
	run.EmitStatus()
	data, err := os.ReadFile(run.statusPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"rotate_failures":`, `"shed_bytes":`, `"rotations":0`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("status JSON lacks %s:\n%s", key, data)
		}
	}
	if want := fmt.Sprintf(`"rotate_failures":%d`, run.RotateFailures); !strings.Contains(string(data), want) {
		t.Errorf("status JSON does not carry the failure count %s:\n%s", want, data)
	}

	// Control: the same run over a writable prefix counts successes and
	// numbers the files contiguously from zero.
	next2, nets2 := genSource(t, 2000)
	ok := &Flags{
		Obs:       &ObsFlags{},
		Workers:   1,
		Rotate:    300 * time.Millisecond,
		RotateOut: filepath.Join(dir, "window"),
	}
	run2, err := ok.RunFrom(nets2, next2, func() bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	defer run2.Close()
	if run2.Rotations == 0 || run2.RotateFailures != 0 {
		t.Fatalf("writable rotation: %d rotations, %d failures", run2.Rotations, run2.RotateFailures)
	}
	for i := 0; i < run2.Rotations; i++ {
		if _, err := os.Stat(fmt.Sprintf("%s-%04d.json", ok.RotateOut, i)); err != nil {
			t.Errorf("window %d missing: %v", i, err)
		}
	}
}

// TestReportFilesWrittenLikeCheckpoints covers the two files other
// processes merge — the rotated window reports and the cluster status
// mirror. They land by write-to-temp-then-rename: a reader holding the
// previous file never sees it rewritten in place, and a write that
// fails leaves neither a partial file nor a temp file behind, counts as
// a rotate failure and does not consume a window index.
func TestReportFilesWrittenLikeCheckpoints(t *testing.T) {
	rotating := func(prefix string) *Run {
		t.Helper()
		next, nets := genSource(t, 2000)
		f := &Flags{Obs: &ObsFlags{}, Workers: 1, Rotate: 300 * time.Millisecond, RotateOut: prefix}
		run, err := f.RunFrom(nets, next, func() bool { return false })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(run.Close)
		return run
	}

	// The first window's name is taken by a non-empty directory, so the
	// rename fails after the temp file was written in full.
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "window-0000.json", "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	run := rotating(filepath.Join(dir, "window"))
	if run.RotateFailures == 0 || run.Rotations != 0 {
		t.Errorf("%d rotations, %d failures with the first window name unwritable, want 0 and every window", run.Rotations, run.RotateFailures)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDir() {
		t.Errorf("failed window writes left files behind or consumed an index: %v", entries)
	}

	// A second name for the files a previous run left: rewriting them in
	// place would change what that name reads.
	dir = t.TempDir()
	window, status := filepath.Join(dir, "window-0000.json"), filepath.Join(dir, "part.status.json")
	for _, name := range []string{window, status} {
		if err := os.WriteFile(name, []byte("previous"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Link(name, name+".held"); err != nil {
			t.Fatal(err)
		}
	}
	run = rotating(filepath.Join(dir, "window"))
	run.statusPath = status
	run.EmitStatus()
	if run.Rotations == 0 {
		t.Fatal("no window rotated")
	}
	for name, want := range map[string]string{window: `"summary":`, status: `"rotations":`} {
		data, err := os.ReadFile(name)
		if err != nil || !strings.Contains(string(data), want) {
			t.Errorf("%s = %q (%v), want a report containing %s", name, data, err, want)
		}
		if held, err := os.ReadFile(name + ".held"); err != nil || string(held) != "previous" {
			t.Errorf("%s was rewritten in place: the held copy reads %q (%v)", name, held, err)
		}
	}
}

// TestSourceErrorFlushesQuarantine injects panics into processing and
// then fails the record source mid-run: the teardown path must still
// write the quarantined frames out for offline dissection.
func TestSourceErrorFlushesQuarantine(t *testing.T) {
	qpath := filepath.Join(t.TempDir(), "quarantine.pcap")
	next, nets := genSource(t, 1<<30)
	f := &Flags{
		Obs:            &ObsFlags{},
		Workers:        1,
		QuarantinePath: qpath,
	}
	hooked := 0
	f.engineHook = func(eng core.Engine) {
		pa := eng.(*core.ParallelAnalyzer)
		pa.SetPanicHook(func(at time.Time, frame []byte) {
			hooked++
			if hooked%50 == 0 {
				panic("injected fault")
			}
		})
	}
	n := 0
	failing := func(rec *pcap.Record) error {
		n++
		if n > 700 {
			return fmt.Errorf("injected capture fault")
		}
		return next(rec)
	}
	if _, err := f.RunFrom(nets, failing, func() bool { return false }); err == nil {
		t.Fatal("run succeeded past an injected source fault")
	}
	data, err := os.ReadFile(qpath)
	if err != nil {
		t.Fatalf("quarantine pcap not written on the source-error path: %v", err)
	}
	s, err := pcap.OpenStream(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("quarantine pcap unreadable: %v", err)
	}
	frames := 0
	var rec pcap.Record
	for s.NextInto(&rec) == nil {
		frames++
	}
	if frames == 0 {
		t.Fatal("quarantine pcap holds no frames")
	}
}

// restoreWarning runs a restore with the given flags and returns what
// the driver logged.
func restoreWarning(t *testing.T, f *Flags, ckPath string) string {
	t.Helper()
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)
	f.Restore = ckPath
	next, nets := genSource(t, 50)
	run, err := f.RunFrom(nets, next, func() bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	return buf.String()
}

// TestRestoreWorkerWarning pins the fixed warning predicate: any
// explicitly set -workers that differs from the checkpoint's engine
// warns — including -workers 1 against a parallel checkpoint and
// -workers N against a sequential one, both silent before the fix.
func TestRestoreWorkerWarning(t *testing.T) {
	dir := t.TempDir()
	_, nets := genSource(t, 1)
	cfg := core.Config{ZoomNetworks: nets}

	parCk := filepath.Join(dir, "par.zlcp")
	if err := NewCheckpointer(parCk, 1, nil).WriteFull(core.NewParallelAnalyzer(cfg, 2)); err != nil {
		t.Fatal(err)
	}
	seqCk := filepath.Join(dir, "seq.zlcp")
	if err := NewCheckpointer(seqCk, 1, nil).WriteFull(core.NewAnalyzer(cfg)); err != nil {
		t.Fatal(err)
	}

	// Flags built via a parsed FlagSet so explicitness is real.
	parse := func(args ...string) *Flags {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		f := Register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		f.Obs = &ObsFlags{}
		return f
	}

	cases := []struct {
		name string
		f    *Flags
		ck   string
		warn bool
	}{
		{"explicit_4_vs_parallel_2", parse("-workers", "4"), parCk, true},
		{"explicit_1_vs_parallel_2", parse("-workers", "1"), parCk, true},
		{"explicit_4_vs_sequential", parse("-workers", "4"), seqCk, true},
		{"explicit_2_vs_parallel_2", parse("-workers", "2"), parCk, false},
		{"default_vs_parallel_2", parse(), parCk, false},
		{"default_vs_sequential", parse(), seqCk, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := restoreWarning(t, tc.f, tc.ck)
			if got := strings.Contains(out, "ignoring -workers"); got != tc.warn {
				t.Errorf("warning emitted = %v, want %v; log:\n%s", got, tc.warn, out)
			}
		})
	}
}
