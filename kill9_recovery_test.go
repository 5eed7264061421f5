package zoomlens

// Crash-recovery differential: a run killed without warning — torn
// checkpoint temp files and a half-written tail record on disk — must
// restore to the newest provable state and, fed the rest of the
// capture, render a report byte-identical to a run that was never
// interrupted. In-process tests control the exact packet cut for the
// byte-level comparison; a subprocess test delivers a real SIGKILL to a
// live tool and proves the restore path up through the CLI.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"zoomlens/internal/engine"
)

func TestKill9RecoveryDifferential(t *testing.T) {
	raw, ngRaw := ingestTrace(t)
	_, _, cfg := benchTrace(t)

	for _, input := range []struct {
		name string
		data []byte
	}{{"pcap", raw}, {"pcapng", ngRaw}} {
		recs, truncated := tracePackets(t, input.data)
		if truncated {
			t.Fatalf("%s trace unexpectedly truncated", input.name)
		}
		n := len(recs)
		cut1, cut2 := n/3, 2*n/3

		for _, workers := range []int{1, 4} {
			// The uninterrupted reference run.
			ref := newEngineFor(cfg, workers)
			for _, rec := range recs {
				ref.Packet(rec.Timestamp, rec.Data)
			}
			ref.Finish()
			want := renderReport(ref.Result())

			// resume reboots over what the doomed run left in base's
			// directory: startup sweeps the debris, restore finds the cut2
			// state, and the rest of the capture must complete the
			// reference report.
			resume := func(t *testing.T, base string, wantFallback bool) {
				ck2 := engine.NewCheckpointer(base, 2, nil)
				if ck2.TmpCleaned == 0 {
					t.Error("startup did not sweep the orphaned temp file")
				}
				resumed, fallbacks, err := engine.RestoreEngine(base, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if wantFallback && fallbacks == 0 {
					t.Error("no fallback counted for the torn record")
				}
				if !wantFallback && fallbacks != 0 {
					t.Errorf("%d fallbacks with every record intact", fallbacks)
				}
				for _, rec := range recs[cut2:] {
					resumed.Packet(rec.Timestamp, rec.Data)
				}
				resumed.Finish()
				if got := renderReport(resumed.Result()); got != want {
					t.Errorf("kill -9 recovery report diverges from the uninterrupted run\n%s",
						firstDiffLine(want, got))
				}
			}

			t.Run(fmt.Sprintf("%s/workers=%d", input.name, workers), func(t *testing.T) {
				// The doomed run: full at cut1, delta at cut2, then a crash
				// leaves a half-written delta and an orphaned temp file.
				dir := t.TempDir()
				base := filepath.Join(dir, "state.zlcp")
				doomed := newEngineFor(cfg, workers)
				ck := engine.NewCheckpointer(base, 2, nil)
				for _, rec := range recs[:cut1] {
					doomed.Packet(rec.Timestamp, rec.Data)
				}
				if err := ck.WriteFull(doomed); err != nil {
					t.Fatal(err)
				}
				for _, rec := range recs[cut1:cut2] {
					doomed.Packet(rec.Timestamp, rec.Data)
				}
				if err := errors.Join(ck.StartDelta(doomed), ck.Wait()); err != nil {
					t.Fatal(err)
				}
				// The kill lands mid-write of the next delta: the record is
				// written whole, then torn in half, exactly what a crash
				// between write and fsync/rename can leave if the rename
				// raced the kill. A stray temp file is debris of the same
				// crash.
				for _, rec := range recs[cut2 : cut2+50] {
					doomed.Packet(rec.Timestamp, rec.Data)
				}
				if err := errors.Join(ck.StartDelta(doomed), ck.Wait()); err != nil {
					t.Fatal(err)
				}
				tornName := base + ".00000002.delta.zlcp"
				fi, err := os.Stat(tornName)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(tornName, fi.Size()/2); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(base+".tmp-killed", []byte("torn"), 0o644); err != nil {
					t.Fatal(err)
				}
				// The doomed process's memory is gone; only the files remain.

				// Reboot: startup sweeps the debris, restore walks back past
				// the torn record to the cut2 state.
				resume(t, base, true)
			})

			// The same crash without delta records (-checkpoint-delta 0):
			// fulls at cut1 and cut2, then the kill lands while the third
			// full is still being encoded into its temp file. Nothing under
			// a record name was touched, so the cut2 full restores with no
			// fallback.
			t.Run(fmt.Sprintf("%s/workers=%d/fulls_only", input.name, workers), func(t *testing.T) {
				dir := t.TempDir()
				base := filepath.Join(dir, "state.zlcp")
				doomed := newEngineFor(cfg, workers)
				ck := engine.NewCheckpointer(base, 2, nil)
				prev := 0
				for _, cut := range []int{cut1, cut2} {
					for _, rec := range recs[prev:cut] {
						doomed.Packet(rec.Timestamp, rec.Data)
					}
					if err := ck.WriteFull(doomed); err != nil {
						t.Fatal(err)
					}
					prev = cut
				}
				for _, rec := range recs[cut2 : cut2+50] {
					doomed.Packet(rec.Timestamp, rec.Data)
				}
				var next bytes.Buffer
				if err := doomed.Checkpoint(&next); err != nil {
					t.Fatal(err)
				}
				tmpName := base + ".00000002.full.zlcp.tmp-killed"
				if err := os.WriteFile(tmpName, next.Bytes()[:next.Len()/2], 0o644); err != nil {
					t.Fatal(err)
				}
				// The directory holds chain records and the temp file,
				// nothing else — in particular no file at base itself.
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, e := range entries {
					names = append(names, e.Name())
				}
				wantNames := []string{
					"state.zlcp.00000000.full.zlcp",
					"state.zlcp.00000001.full.zlcp",
					filepath.Base(tmpName),
				}
				if !slices.Equal(names, wantNames) {
					t.Fatalf("doomed run left %v, want %v", names, wantNames)
				}
				resume(t, base, false)
			})
		}
	}
}

// firstDiffLine locates the first differing line of two reports for a
// readable failure message.
func firstDiffLine(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\nwant: %s\ngot:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}

// TestCLISigkillRecovery delivers a real SIGKILL to a checkpointing
// zoomqoe mid-capture, then proves a second invocation restores from
// the chain the dead process left behind: -restore succeeds, the
// status line reports the recovery, and the tool renders a report. The
// first life cuts a delta every 100 ms of a capture it drains in a
// fraction of a second, so its writer goroutine is busy nearly all the
// time and the kill often lands on a record in flight: that may leave a
// temp file, never a torn record under a chain name — the restore skips
// nothing and the second life sweeps what it finds.
func TestCLISigkillRecovery(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	pcapPath := filepath.Join(work, "meeting.pcap")
	runTool(t, bin, "zoomsim", "-o", pcapPath, "-mode", "meeting", "-duration", "60s", "-congest")
	data, err := os.ReadFile(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	ckBase := filepath.Join(work, "state.zlcp")

	// First life: ingest from a pipe held open so the process is alive
	// and checkpointing when the kill lands.
	cmd := exec.Command(filepath.Join(bin, "zoomqoe"),
		"-i", "-", "-what", "loss", "-workers", "2",
		"-checkpoint", ckBase, "-checkpoint-interval", "5s", "-checkpoint-delta", "100ms")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := stdin.Write(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	// Wait for the chain to materialize (trace-clock checkpoints fire
	// while the half capture drains), then kill without ceremony.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if m, _ := filepath.Glob(ckBase + ".*.full.zlcp"); len(m) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no full checkpoint appeared before the kill")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	stdin.Close()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("expected death by SIGKILL, got %v", err)
	}
	inFlight, _ := filepath.Glob(ckBase + "*.tmp-*")
	t.Logf("the kill left %d temp file(s) of a record in flight", len(inFlight))
	// Plant crash debris the second life must sweep.
	if err := os.WriteFile(ckBase+".tmp-crashed", []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Second life: restore the chain and finish the capture. (The file
	// is replayed from the start here — the goal is proving the CLI
	// restore path; the packet-exact differential is the in-process test
	// above.)
	cmd = exec.Command(filepath.Join(bin, "zoomqoe"),
		"-i", pcapPath, "-what", "loss",
		"-restore", ckBase, "-checkpoint", ckBase, "-checkpoint-delta", "1s")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("restore run: %v\n%s", err, stderr.String())
	}
	if strings.Count(stdout.String(), "\n") < 1 {
		t.Errorf("restored run produced no report:\n%s", stdout.String())
	}

	// The status line (last JSON object on stderr) must record the
	// recovery: restored, the swept temp file, and a live chain.
	status := lastJSONLine(t, stderr.String())
	if status["restored"] != true {
		t.Errorf("status restored = %v, want true", status["restored"])
	}
	if n, _ := status["tmp_cleaned"].(float64); int(n) != 1+len(inFlight) {
		t.Errorf("status tmp_cleaned = %v, want %d (the planted file and what the kill left)", status["tmp_cleaned"], 1+len(inFlight))
	}
	if left, _ := filepath.Glob(ckBase + "*.tmp-*"); len(left) != 0 {
		t.Errorf("temp files survive the second life: %v", left)
	}
	if n, _ := status["restore_fallbacks"].(float64); n != 0 {
		t.Errorf("status restore_fallbacks = %v, want 0: the kill left a torn record under a chain name", status["restore_fallbacks"])
	}
	if n, _ := status["checkpoints"].(float64); n < 1 {
		t.Errorf("status checkpoints = %v, want >= 1", status["checkpoints"])
	}
}

// lastJSONLine parses the last JSON object line of a stderr dump.
func lastJSONLine(t *testing.T, stderr string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		ln := strings.TrimSpace(lines[i])
		if !strings.HasPrefix(ln, "{") {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("status line does not parse: %v\n%s", err, ln)
		}
		return m
	}
	t.Fatalf("no status JSON on stderr:\n%s", stderr)
	return nil
}
