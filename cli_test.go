package zoomlens

// End-to-end CLI integration: builds every command once, then drives the
// documented pipeline (zoomsim → zoomcap → analysis tools) in a temp
// directory, asserting each tool produces sane output on the others'
// artifacts.

import (
	"bytes"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	cliOnce sync.Once
	cliDir  string
	cliErr  error
)

// buildCLI compiles all commands into a shared temp dir once per test
// process.
func buildCLI(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	cliOnce.Do(func() {
		cliDir, cliErr = os.MkdirTemp("", "zoomlens-cli-*")
		if cliErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", cliDir+string(os.PathSeparator), "./cmd/...")
		out, err := cmd.CombinedOutput()
		if err != nil {
			cliErr = err
			cliDir = string(out)
		}
	})
	if cliErr != nil {
		t.Fatalf("building CLI: %v (%s)", cliErr, cliDir)
	}
	return cliDir
}

func runTool(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

// dataLines returns a CSV report's lines after its header.
func dataLines(csv string) []string {
	return strings.Split(strings.TrimSpace(csv), "\n")[1:]
}

func TestCLIPipeline(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	meeting := filepath.Join(work, "meeting.pcap")
	campusRaw := filepath.Join(work, "campus.pcap")
	filtered := filepath.Join(work, "zoom.pcap")

	// 1. Synthesize a controlled meeting and a short campus excerpt.
	out := runTool(t, bin, "zoomsim", "-o", meeting, "-mode", "meeting", "-duration", "20s", "-congest")
	if !strings.Contains(out, "wrote") {
		t.Fatalf("zoomsim output: %s", out)
	}
	runTool(t, bin, "zoomsim", "-o", campusRaw, "-mode", "campus", "-duration", "90s", "-rate", "30", "-bg", "150")
	p2pPcap := filepath.Join(work, "p2p.pcap")
	runTool(t, bin, "zoomsim", "-o", p2pPcap, "-mode", "meeting", "-duration", "25s", "-p2p", "-screen")
	ngPcap := filepath.Join(work, "meeting.pcapng")
	runTool(t, bin, "zoomsim", "-o", ngPcap, "-mode", "meeting", "-duration", "10s", "-format", "pcapng")
	if out := runTool(t, bin, "zoomqoe", "-i", ngPcap, "-what", "summary"); !strings.Contains(out, "streams=8") {
		t.Fatalf("pcapng summary: %s", out)
	}
	if out := runTool(t, bin, "zoomqoe", "-i", p2pPcap, "-what", "flows"); !strings.Contains(out, "p2p") {
		t.Fatalf("p2p flows: %s", out)
	}

	// 2. Filter the campus capture; anonymize prefix-preservingly.
	out = runTool(t, bin, "zoomcap", "-i", campusRaw, "-o", filtered, "-anon", "-anon-mode", "prefix", "-key", "k")
	if !strings.Contains(out, "processed") || !strings.Contains(out, "dropped") {
		t.Fatalf("zoomcap output: %s", out)
	}
	// Anonymization is a pure function of key and capture in both modes
	// (two runs, identical bytes), and there is one write path: the
	// retired -workers flag is an error, not a silently ignored option.
	for _, mode := range []string{"prefix", "hash"} {
		var runs [2][]byte
		for i := range runs {
			path := filepath.Join(work, "anon-"+mode+".pcap")
			runTool(t, bin, "zoomcap", "-i", campusRaw, "-o", path, "-anon", "-anon-mode", mode, "-key", "k")
			var err error
			if runs[i], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		if len(runs[0]) <= 24 || !bytes.Equal(runs[0], runs[1]) {
			t.Fatalf("zoomcap -anon-mode %s: two runs wrote %d and %d bytes, want identical non-empty captures", mode, len(runs[0]), len(runs[1]))
		}
	}
	usage, err := exec.Command(filepath.Join(bin, "zoomcap"), "-i", campusRaw, "-o", filepath.Join(work, "w.pcap"), "-anon", "-workers", "2").CombinedOutput()
	if err == nil || !strings.Contains(string(usage), "flag provided but not defined: -workers") || !strings.Contains(string(usage), "Usage") {
		t.Fatalf("zoomcap -workers 2: err %v, output:\n%s", err, usage)
	}

	// 3. Flows / meetings / reports / summary on the filtered capture.
	if out = runTool(t, bin, "zoomqoe", "-i", filtered, "-what", "summary"); !strings.Contains(out, "meetings=") {
		t.Fatalf("summary: %s", out)
	}
	if out = runTool(t, bin, "zoomqoe", "-i", meeting, "-what", "meetings"); strings.Count(out, "\n") < 2 {
		t.Fatalf("meetings csv: %s", out)
	}
	if out = runTool(t, bin, "zoomqoe", "-i", meeting, "-what", "reports"); !strings.Contains(out, "video_fps") {
		t.Fatalf("reports csv: %s", out)
	}

	// 3b. -flow-ttl moves idle streams between containers, never out of a
	// report: the per-stream and per-participant reports list the rows the
	// run that never evicts lists.
	rowKeys := func(what, ttl string, cols int) (map[string]bool, runStatus) {
		stdout, stderr := stdoutOf(t, bin, "zoomqoe", "-i", filtered, "-what", what, "-flow-ttl", ttl)
		keys := map[string]bool{}
		for _, line := range dataLines(stdout) {
			keys[strings.Join(strings.SplitN(line, ",", cols+1)[:cols], ",")] = true
		}
		return keys, parseStatus(t, stderr)
	}
	for _, row := range []struct {
		what string
		cols int // leading CSV columns that identify a row
	}{{"loss", 4}, {"streams", 4}, {"reports", 3}} {
		want, _ := rowKeys(row.what, "0", row.cols)
		got, st := rowKeys(row.what, "5s", row.cols)
		if st.EvictedStreams == 0 {
			t.Fatalf("zoomqoe -what %s -flow-ttl 5s evicted nothing: the row tests nothing", row.what)
		}
		if len(want) == 0 || !maps.Equal(got, want) {
			t.Errorf("zoomqoe -what %s: %d rows under -flow-ttl 5s (%d streams evicted), %d without", row.what, len(got), st.EvictedStreams, len(want))
		}
	}
	// Every stream segment the report window admitted is one row: each
	// live one and each one eviction archived.
	stdout, stderr := stdoutOf(t, bin, "zoomqoe", "-i", filtered, "-what", "streams", "-flow-ttl", "5s")
	if st, rows := parseStatus(t, stderr), len(dataLines(stdout)); st.EvictedStreams == 0 || uint64(rows) != uint64(st.Streams)+st.EvictedStreams {
		t.Errorf("zoomqoe -what streams -flow-ttl 5s: %d rows, status %d live + %d evicted streams", rows, st.Streams, st.EvictedStreams)
	}

	// 3c. -ssrc restricts every per-stream output to that SSRC's rows:
	// fewer data lines than without it, never none, and no other SSRC's.
	for _, what := range []string{"series", "loss", "talk", "clock", "streams"} {
		stdout, _ := stdoutOf(t, bin, "zoomqoe", "-i", meeting, "-what", what)
		all := dataLines(stdout)
		if len(all) == 0 {
			t.Fatalf("zoomqoe -what %s printed no data lines", what)
		}
		ssrc, _, _ := strings.Cut(all[0], ",")
		stdout, _ = stdoutOf(t, bin, "zoomqoe", "-i", meeting, "-what", what, "-ssrc", ssrc)
		one := dataLines(stdout)
		if len(one) == 0 || len(one) >= len(all) {
			t.Errorf("zoomqoe -what %s: %d data lines with -ssrc %s, %d without", what, len(one), ssrc, len(all))
		}
		for _, line := range one {
			if !strings.HasPrefix(line, ssrc+",") {
				t.Errorf("zoomqoe -what %s -ssrc %s printed another stream's row: %s", what, ssrc, line)
			}
		}
	}

	// 4. Metrics: series, rtt, loss, talk, clock.
	for _, what := range []string{"series", "rtt", "loss", "talk", "clock"} {
		out = runTool(t, bin, "zoomqoe", "-i", meeting, "-what", what)
		if strings.Count(out, "\n") < 2 {
			t.Fatalf("zoomqoe %s produced %d lines:\n%s", what, strings.Count(out, "\n"), out)
		}
	}
	if out = runTool(t, bin, "zoomqoe", "-i", meeting, "-what", "clock"); !strings.Contains(out, "90000") {
		t.Fatalf("clock sweep did not find 90 kHz:\n%s", out)
	}

	// 5. Dissection and entropy analysis.
	if out = runTool(t, bin, "zoomdissect", "-i", meeting, "-n", "5"); !strings.Contains(out, "Zoom Media Encapsulation") {
		t.Fatalf("dissect: %s", out)
	}
	if out = runTool(t, bin, "zoomentropy", "-i", meeting, "-max-offset", "48"); !strings.Contains(out, "RTP signature") {
		t.Fatalf("entropy: %s", out)
	}

	// 6. Feature export: versioned header plus a header-free column.
	if out = runTool(t, bin, "zoomfeatures", "-i", meeting); !strings.Contains(out, "#zoomlens-features v2") || !strings.Contains(out, "wire_kbps") {
		t.Fatalf("features: %s", out)
	}

	// 7. Infrastructure survey and artifact generators.
	if out = runTool(t, bin, "zoominfra"); !strings.Contains(out, "5452") {
		t.Fatalf("infra: %s", out)
	}
	if out = runTool(t, bin, "zoomdissect", "-export-lua"); !strings.Contains(out, "Proto(") {
		t.Fatalf("lua export: %s", out)
	}
	if out = runTool(t, bin, "zoomcap", "-export-p4"); !strings.Contains(out, "V1Switch") {
		t.Fatalf("p4 export: %s", out)
	}
	if out = runTool(t, bin, "zoomcap", "-resources"); !strings.Contains(out, "Anonymization") {
		t.Fatalf("resources: %s", out)
	}
}

func TestCLIExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, ex := range []struct {
		dir  string
		want string
		args []string
	}{
		{"./examples/quickstart", "per-stream metrics", nil},
		{"./examples/validation", "Figure 10c", nil},
		{"./examples/p2pdetect", "meeting is P2P: true", nil},
		{"./examples/campus", "Figure 17", []string{"-duration", "3m", "-rate", "15"}},
	} {
		args := append([]string{"run", ex.dir}, ex.args...)
		cmd := exec.Command("go", args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", ex.dir, err, out)
		}
		if !strings.Contains(string(out), ex.want) {
			t.Errorf("%s output missing %q:\n%s", ex.dir, ex.want, out)
		}
	}
}
