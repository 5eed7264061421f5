package zoomlens

// End-to-end cluster pipeline over the real binaries: zoomsim →
// zoomsplit → N worker zoomqoe processes (-cluster-part) → zoomagg.
// The merged checkpoint, rendered by an ordinary zoomqoe -restore over
// an empty capture, must be byte-identical to a single zoomqoe run over
// the whole capture — including a run where every worker is drained,
// checkpointed, and restored mid-trace (the migration path).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zoomlens/internal/pcap"
)

// runToolSplit runs a built CLI tool returning stdout and stderr
// separately (the status JSON lands on stderr and must not pollute
// byte-compared reports).
func runToolSplit(t *testing.T, dir, name string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s", name, args, err, stdout.String(), stderr.String())
	}
	return stdout.String(), stderr.String()
}

// writeEmptyPcap writes a header-only classic pcap (the input for
// rendering a restored checkpoint without ingesting anything).
func writeEmptyPcap(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pcap.NewWriter(f, pcap.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterCLIHostileTime: one record of a microsecond pcapng capture
// is stamped 3000-01-01, which the splitter's nanosecond worker streams
// cannot carry. The split must complete with that frame dropped and
// counted in the manifest, and the merged summary must still count all
// 200 frames, the dropped one as undecodable where one engine reading the
// capture decodes it.
func TestClusterCLIHostileTime(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	_, _, cfg := benchTrace(t)
	recs, capture := hostileTimeCapture(t, cfg)
	ref := NewAnalyzer(cfg)
	for _, r := range recs {
		ref.Packet(r.Timestamp, r.Data)
	}
	ref.Finish()
	want := ref.Summary()
	in := filepath.Join(work, "hostile.pcapng")
	if err := os.WriteFile(in, capture, 0o644); err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(work, "sp")
	runToolSplit(t, bin, "zoomsplit", "-i", in, "-n", "2", "-out", prefix)
	data, err := os.ReadFile(prefix + ".manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Packets          uint64   `json:"packets"`
		KeptPerWorker    []uint64 `json:"kept_per_worker"`
		DroppedTimeRange uint64   `json:"dropped_time_range"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if man.Packets != 200 || man.DroppedTimeRange != 1 || len(man.KeptPerWorker) != 2 || man.KeptPerWorker[0]+man.KeptPerWorker[1] != 199 {
		t.Fatalf("manifest: %s", data)
	}
	var parts []string
	for i := 0; i < 2; i++ {
		part := fmt.Sprintf("%s-%03d", prefix, i)
		runToolSplit(t, bin, "zoomqoe", "-i", part+".pcapng", "-cluster-part", part, "-what", "summary")
		parts = append(parts, part)
	}
	out, _ := runToolSplit(t, bin, "zoomagg", "-cluster-merge", strings.Join(parts, ","), "-manifest", prefix+".manifest.json", "-summary")
	var sum struct{ Packets, Undecodable uint64 }
	if err := json.Unmarshal([]byte(out), &sum); err != nil {
		t.Fatalf("merged summary is not JSON: %v\n%s", err, out)
	}
	if sum.Packets != 200 || want.Packets != 200 || sum.Undecodable != want.Undecodable+1 {
		t.Errorf("merged summary counts %d frames, %d undecodable; want 200, one more undecodable than one engine's %d", sum.Packets, sum.Undecodable, want.Undecodable)
	}
}

func TestClusterCLI(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	meeting := filepath.Join(work, "meeting.pcap")
	empty := filepath.Join(work, "empty.pcap")
	writeEmptyPcap(t, empty)

	runToolSplit(t, bin, "zoomsim", "-o", meeting, "-mode", "meeting", "-duration", "20s", "-congest")
	want, _ := runToolSplit(t, bin, "zoomqoe", "-i", meeting, "-what", "loss")
	if strings.Count(want, "\n") < 2 {
		t.Fatalf("reference loss report too short:\n%s", want)
	}

	t.Run("fanout", func(t *testing.T) {
		prefix := filepath.Join(work, "sp")
		_, serr := runToolSplit(t, bin, "zoomsplit", "-i", meeting, "-n", "2", "-out", prefix)
		if !strings.Contains(serr, "split ") {
			t.Fatalf("zoomsplit stderr: %s", serr)
		}
		var parts []string
		for i := 0; i < 2; i++ {
			part := fmt.Sprintf("%s-%03d", prefix, i)
			runToolSplit(t, bin, "zoomqoe", "-i", part+".pcapng", "-cluster-part", part, "-what", "loss")
			// The state is a one-record checkpoint chain under the base
			// <part>.state.zlcp.
			for _, suffix := range []string{".state.zlcp.00000000.full.zlcp", ".obs", ".status.json"} {
				if _, err := os.Stat(part + suffix); err != nil {
					t.Fatalf("worker %d left no %s artifact: %v", i, suffix, err)
				}
			}
			parts = append(parts, part)
		}
		merged := filepath.Join(work, "merged.zlcp")
		runToolSplit(t, bin, "zoomagg",
			"-cluster-merge", strings.Join(parts, ","),
			"-manifest", prefix+".manifest.json",
			"-checkpoint-out", merged)
		// Render-only: -restore without -i reads the report straight out
		// of the merged state.
		got, _ := runToolSplit(t, bin, "zoomqoe", "-restore", merged, "-what", "loss")
		if got != want {
			t.Errorf("cluster-merged report diverges from single run (lens %d vs %d)\nfirst diff: %s",
				len(got), len(want), firstDiffLine(want, got))
		}

		// The operational status roll-up: worker packet counts sum.
		statusFiles := []string{parts[0] + ".status.json", parts[1] + ".status.json"}
		sout, _ := runToolSplit(t, bin, "zoomagg", "-status", strings.Join(statusFiles, ","))
		var ms map[string]any
		if err := json.Unmarshal([]byte(sout), &ms); err != nil {
			t.Fatalf("merged status is not JSON: %v\n%s", err, sout)
		}
		var sum float64
		for _, f := range statusFiles {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var one map[string]any
			if err := json.Unmarshal(data, &one); err != nil {
				t.Fatalf("worker status %s: %v", f, err)
			}
			sum += one["packets"].(float64)
		}
		if got := ms["packets"].(float64); got != sum || sum == 0 {
			t.Errorf("merged status packets = %v, want worker sum %v (> 0)", got, sum)
		}
	})

	t.Run("migration", func(t *testing.T) {
		prefix := filepath.Join(work, "mg")
		runToolSplit(t, bin, "zoomsplit", "-i", meeting, "-n", "2", "-out", prefix, "-cut", "500")
		var parts []string
		var extraObs []string
		for i := 0; i < 2; i++ {
			first := fmt.Sprintf("%s-%03d", prefix, i)
			second := first + "b"
			// First life: consume the pre-cut stream; its shutdown
			// checkpoint is the migration handoff.
			runToolSplit(t, bin, "zoomqoe", "-i", first+".pcapng", "-cluster-part", first, "-what", "loss")
			// Second life "elsewhere": restore the checkpoint under a new
			// part prefix and consume the rotated stream.
			runToolSplit(t, bin, "zoomqoe", "-i", fmt.Sprintf("%s-%03d.1.pcapng", prefix, i),
				"-cluster-part", second, "-restore", first+".state.zlcp", "-what", "loss")
			parts = append(parts, second)
			extraObs = append(extraObs, first+".obs")
		}
		merged := filepath.Join(work, "merged-mg.zlcp")
		aout, _ := runToolSplit(t, bin, "zoomagg",
			"-cluster-merge", strings.Join(parts, ","),
			"-obs", strings.Join(extraObs, ","),
			"-manifest", prefix+".manifest.json",
			"-checkpoint-out", merged,
			"-summary")
		if !strings.Contains(aout, `"Packets"`) && !strings.Contains(aout, `"packets"`) {
			t.Fatalf("zoomagg -summary output: %s", aout)
		}
		got, _ := runToolSplit(t, bin, "zoomqoe", "-i", empty, "-restore", merged, "-what", "loss")
		if got != want {
			t.Errorf("post-migration cluster report diverges (lens %d vs %d)\nfirst diff: %s",
				len(got), len(want), firstDiffLine(want, got))
		}
	})

	t.Run("exec", func(t *testing.T) {
		// -exec mode: the splitter spawns the workers itself and feeds
		// them over stdin pipes.
		prefix := filepath.Join(work, "ex")
		workerCmd := fmt.Sprintf("%s -i - -cluster-part %s-$ZOOMSPLIT_WORKER -what loss >/dev/null",
			filepath.Join(bin, "zoomqoe"), prefix)
		runToolSplit(t, bin, "zoomsplit", "-i", meeting, "-n", "2",
			"-exec", workerCmd, "-manifest", prefix+".manifest.json")
		deadline := time.Now().Add(5 * time.Second)
		for _, part := range []string{prefix + "-0", prefix + "-1"} {
			for {
				if _, err := os.Stat(part + ".state.zlcp.00000000.full.zlcp"); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("worker state chain %s.state.zlcp never appeared", part)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
		merged := filepath.Join(work, "merged-ex.zlcp")
		runToolSplit(t, bin, "zoomagg",
			"-cluster-merge", prefix+"-0,"+prefix+"-1",
			"-manifest", prefix+".manifest.json",
			"-checkpoint-out", merged)
		got, _ := runToolSplit(t, bin, "zoomqoe", "-restore", merged, "-what", "loss")
		if got != want {
			t.Errorf("exec-mode cluster report diverges (lens %d vs %d)\nfirst diff: %s",
				len(got), len(want), firstDiffLine(want, got))
		}
	})
}
