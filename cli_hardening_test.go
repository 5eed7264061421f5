package zoomlens

// CLI-level robustness: interrupted runs and truncated captures must
// exit 0 with a parseable partial report, hard caps must surface their
// rejection counts, and bad flag values must fail with usage errors
// instead of panics.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// runStatus mirrors the JSON status object zoomqoe emits on
// stderr.
type runStatus struct {
	Partial         bool   `json:"partial"`
	Reason          string `json:"reason"`
	Packets         uint64 `json:"packets"`
	Flows           int    `json:"flows"`
	Streams         int    `json:"streams"`
	EvictedFlows    uint64 `json:"evicted_flows"`
	EvictedStreams  uint64 `json:"evicted_streams"`
	RejectedPackets uint64 `json:"rejected_packets"`
	PanicsRecovered uint64 `json:"panics_recovered"`
	Quarantined     uint64 `json:"quarantined"`
	Truncated       bool   `json:"truncated"`
}

func parseStatus(t *testing.T, stderr string) runStatus {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	last := lines[len(lines)-1]
	var st runStatus
	if err := json.Unmarshal([]byte(last), &st); err != nil {
		t.Fatalf("status line is not JSON: %q (%v)\nfull stderr:\n%s", last, err, stderr)
	}
	return st
}

func simMeeting(t *testing.T, bin, path string) {
	t.Helper()
	runTool(t, bin, "zoomsim", "-o", path, "-mode", "meeting", "-duration", "15s")
}

// TestCLIInterruptEmitsPartialReport interrupts zoomqoe mid-read (the
// input is a FIFO, so the tool is genuinely mid-capture) and requires a
// clean exit with a partial report.
func TestCLIInterruptEmitsPartialReport(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	meeting := filepath.Join(work, "meeting.pcap")
	simMeeting(t, bin, meeting)
	capture, err := os.ReadFile(meeting)
	if err != nil {
		t.Fatal(err)
	}

	fifo := filepath.Join(work, "stream.pcap")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo unavailable: %v", err)
	}
	cmd := exec.Command(filepath.Join(bin, "zoomqoe"), "-i", fifo, "-what", "series")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Feed roughly half the capture, interrupt, then hang up. The tool
	// must notice the signal, finalize what it saw, and exit 0.
	if _, err := w.Write(capture[:len(capture)/2]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	w.Close()

	if err := cmd.Wait(); err != nil {
		t.Fatalf("zoomqoe did not exit cleanly after SIGINT: %v\nstderr:\n%s", err, stderr.String())
	}
	st := parseStatus(t, stderr.String())
	if !st.Partial {
		t.Errorf("status not marked partial: %+v", st)
	}
	if st.Reason != "interrupted" {
		t.Errorf("reason = %q, want interrupted", st.Reason)
	}
	if st.Packets == 0 {
		t.Error("partial report analyzed zero packets")
	}
}

// TestCLISplitInterruptWritesManifest interrupts zoomsplit mid-read the
// same way: it must exit 0 and leave a manifest whose per-worker counts
// are exactly the records in the worker streams, so the partial split
// can still be analysed and merged.
func TestCLISplitInterruptWritesManifest(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	meeting := filepath.Join(work, "meeting.pcap")
	simMeeting(t, bin, meeting)
	capture, err := os.ReadFile(meeting)
	if err != nil {
		t.Fatal(err)
	}
	fifo := filepath.Join(work, "stream.pcap")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo unavailable: %v", err)
	}
	prefix := filepath.Join(work, "sp")
	cmd := exec.Command(filepath.Join(bin, "zoomsplit"), "-i", fifo, "-n", "2", "-out", prefix)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(capture[:len(capture)/2]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	w.Close()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("zoomsplit did not exit cleanly after SIGINT: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("zoomsplit did not report the interrupt:\n%s", stderr.String())
	}
	data, err := os.ReadFile(prefix + ".manifest.json")
	if err != nil {
		t.Fatalf("no manifest after SIGINT: %v", err)
	}
	var man struct {
		Packets       uint64   `json:"packets"`
		KeptPerWorker []uint64 `json:"kept_per_worker"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if man.Packets == 0 || len(man.KeptPerWorker) != 2 {
		t.Fatalf("manifest: %s", data)
	}
	for i, kept := range man.KeptPerWorker {
		stream, err := os.ReadFile(fmt.Sprintf("%s-%03d.pcapng", prefix, i))
		if err != nil {
			t.Fatal(err)
		}
		if recs, truncated := tracePackets(t, stream); uint64(len(recs)) != kept || truncated {
			t.Errorf("worker %d stream holds %d records (truncated %v), manifest says %d", i, len(recs), truncated, kept)
		}
	}
}

// TestCLITruncatedCapturePartialReport cuts a capture mid-record and
// requires both analysis tools to deliver the readable prefix, flag the
// truncation, and exit 0.
func TestCLITruncatedCapturePartialReport(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	meeting := filepath.Join(work, "meeting.pcap")
	simMeeting(t, bin, meeting)
	capture, err := os.ReadFile(meeting)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(work, "cut.pcap")
	// Chop mid-record: any offset that is not a record boundary works,
	// and 3/4 of the way through a capture never is one exactly.
	if err := os.WriteFile(cut, capture[:len(capture)*3/4+1], 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(filepath.Join(bin, "zoomqoe"), "-i", cut, "-what", "summary")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("zoomqoe failed on truncated capture: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "truncated=true") {
		t.Errorf("summary does not flag truncation: %s", stdout.String())
	}
	st := parseStatus(t, stderr.String())
	if !st.Partial || st.Reason != "truncated_capture" || !st.Truncated {
		t.Errorf("status = %+v, want partial truncated_capture", st)
	}
	if st.Packets == 0 {
		t.Error("no packets recovered from the readable prefix")
	}
}

// TestCLIBoundedStateFlags runs zoomqoe with a one-flow cap and an
// aggressive TTL and requires the rejections to surface in the status.
func TestCLIBoundedStateFlags(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	meeting := filepath.Join(work, "meeting.pcap")
	simMeeting(t, bin, meeting)

	cmd := exec.Command(filepath.Join(bin, "zoomqoe"),
		"-i", meeting, "-what", "summary", "-max-flows", "1", "-flow-ttl", "2s",
		"-quarantine", filepath.Join(work, "quarantine.pcap"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("zoomqoe with caps failed: %v\nstderr:\n%s", err, stderr.String())
	}
	st := parseStatus(t, stderr.String())
	if st.RejectedPackets == 0 {
		t.Errorf("a one-flow cap on a multi-flow meeting rejected nothing: %+v", st)
	}
	if st.Partial {
		t.Errorf("capped but complete run wrongly marked partial: %+v", st)
	}
	if st.PanicsRecovered != 0 || st.Quarantined != 0 {
		t.Errorf("clean capture triggered panics: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(work, "quarantine.pcap")); !os.IsNotExist(err) {
		t.Error("quarantine pcap written despite zero panics")
	}
}

// TestCLIEntropyPlotValidation feeds zoomentropy an unsupported -plot
// width and expects a usage error, not a panic.
func TestCLIEntropyPlotValidation(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	meeting := filepath.Join(work, "meeting.pcap")
	simMeeting(t, bin, meeting)

	cmd := exec.Command(filepath.Join(bin, "zoomentropy"), "-i", meeting, "-plot", "4:3")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatal("zoomentropy accepted -plot width 3")
	}
	if strings.Contains(string(out), "panic") {
		t.Fatalf("zoomentropy panicked instead of failing cleanly:\n%s", out)
	}
	if !strings.Contains(string(out), "width must be 1, 2, or 4") {
		t.Errorf("missing usage error, got:\n%s", out)
	}
}
