package zoomlens

// CLI-level observability integration: the live-measurement flags must
// not change any final output byte, the snapshot stream must be valid
// JSON lines, and the /metrics endpoint must answer while a tool is
// mid-capture.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// stdoutOf runs a tool keeping stdout and stderr apart (runTool combines
// them, which would fold the status JSON into the differential bytes).
func stdoutOf(t *testing.T, dir, name string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestCLISnapshotsDoNotChangeReport is the CLI half of the differential
// gate: at one worker and at four, zoomqoe's stdout must be
// byte-identical with and without -snapshot-interval, the snapshot
// stream must be valid JSON lines, the sequential and parallel
// snapshot streams must match each other, and under -trace the status
// JSON must still be the last stderr line.
func TestCLISnapshotsDoNotChangeReport(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	pcapPath := filepath.Join(work, "meeting.pcap")
	runTool(t, bin, "zoomsim", "-o", pcapPath, "-mode", "meeting", "-duration", "30s", "-congest")

	snapFiles := make(map[string]string)
	for _, workers := range []string{"1", "4"} {
		base, _ := stdoutOf(t, bin, "zoomqoe", "-i", pcapPath, "-what", "series", "-workers", workers)
		if strings.Count(base, "\n") < 2 {
			t.Fatalf("workers=%s baseline produced no series:\n%s", workers, base)
		}
		snap := filepath.Join(work, "snaps-"+workers+".jsonl")
		snapFiles[workers] = snap
		got, stderr := stdoutOf(t, bin, "zoomqoe", "-i", pcapPath, "-what", "series", "-workers", workers,
			"-snapshot-interval", "2s", "-snapshot-out", snap, "-trace")
		if got != base {
			t.Errorf("workers=%s: -snapshot-interval changed the report", workers)
		}
		if !strings.Contains(stderr, "ingest") || !strings.Contains(stderr, "snapshot") {
			t.Errorf("workers=%s: -trace report missing stages:\n%s", workers, stderr)
		}
		// The stage report comes before the status line, which stays last.
		if st := parseStatus(t, stderr); st.Packets == 0 || st.Partial {
			t.Errorf("workers=%s: -trace status line %+v", workers, st)
		}
		checkSnapshotFile(t, snap)
	}
	seq, err := os.ReadFile(snapFiles["1"])
	if err != nil {
		t.Fatal(err)
	}
	par, err := os.ReadFile(snapFiles["4"])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq, par) {
		t.Errorf("snapshot streams diverge between workers=1 and workers=4:\n--- 1\n%s--- 4\n%s", seq, par)
	}
}

// checkSnapshotFile validates a JSON-lines snapshot file: several lines,
// each one a plausible per-meeting snapshot.
func checkSnapshotFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 {
		t.Fatalf("expected several snapshot lines, got %d:\n%s", len(lines), data)
	}
	for _, ln := range lines {
		var ms MeetingSnapshot
		if err := json.Unmarshal([]byte(ln), &ms); err != nil {
			t.Fatalf("snapshot line does not parse: %v\n%s", err, ln)
		}
		if ms.Time.IsZero() || ms.Meeting <= 0 || ms.Streams <= 0 || ms.Packets == 0 {
			t.Fatalf("implausible snapshot: %s", ln)
		}
	}
}

// TestCLILiveMetricsEndpoint feeds zoomqoe a pcap over stdin, holds the
// pipe open halfway through, and scrapes the -metrics-addr endpoint
// while the tool is demonstrably mid-capture.
func TestCLILiveMetricsEndpoint(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	pcapPath := filepath.Join(work, "meeting.pcap")
	runTool(t, bin, "zoomsim", "-o", pcapPath, "-mode", "meeting", "-duration", "20s")
	data, err := os.ReadFile(pcapPath)
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(filepath.Join(bin, "zoomqoe"),
		"-i", "-", "-what", "loss", "-workers", "2", "-metrics-addr", "127.0.0.1:0")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait()
	defer stdin.Close()

	// The tool announces the bound (ephemeral) address on stderr.
	sc := bufio.NewScanner(stderrPipe)
	addr := ""
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on http://"); i >= 0 {
			addr = strings.TrimSuffix(line[i+len("listening on http://"):], "/metrics")
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listening address on stderr (scan error: %v)", sc.Err())
	}
	go io.Copy(io.Discard, stderrPipe)

	// Feed half the capture; the pipe stays open so the tool is
	// provably still ingesting when the scrape lands.
	if _, err := stdin.Write(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	// Poll until the packet counter is visibly positive: the scrape can
	// land before the tool has drained the pipe buffer.
	var body string
	var mid float64
	deadline := time.Now().Add(10 * time.Second)
	for {
		body = scrape(t, "http://"+addr+"/metrics")
		fmt.Sscanf(findLine(body, "zoomlens_packets_total "), "zoomlens_packets_total %g", &mid)
		if mid > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if mid <= 0 {
		t.Errorf("mid-capture zoomlens_packets_total never went positive")
	}
	for _, want := range []string{
		"zoomlens_decode_stage_packets_total",
		`zoomlens_state_occupancy{shard="0"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("mid-capture exposition missing %q", want)
		}
	}

	if _, err := stdin.Write(data[len(data)/2:]); err != nil {
		t.Fatal(err)
	}
	stdin.Close()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("zoomqoe: %v", err)
	}
	if strings.Count(stdout.String(), "\n") < 2 {
		t.Errorf("loss report empty after stdin capture:\n%s", stdout.String())
	}
}

// TestCLIShedAndRecoveryCountersExposed pins the continuous-operation
// counters to both surfaces: the Prometheus exposition must carry the
// shed and checkpoint-lifecycle series while a shedding, checkpointing
// tool is mid-capture, and the final status JSON must carry the
// matching fields.
func TestCLIShedAndRecoveryCountersExposed(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	pcapPath := filepath.Join(work, "meeting.pcap")
	runTool(t, bin, "zoomsim", "-o", pcapPath, "-mode", "meeting", "-duration", "20s")
	data, err := os.ReadFile(pcapPath)
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(filepath.Join(bin, "zoomqoe"),
		"-i", "-", "-what", "loss", "-workers", "2", "-shed",
		"-checkpoint", filepath.Join(work, "state.zlcp"),
		"-checkpoint-interval", "5s", "-checkpoint-delta", "1s",
		"-metrics-addr", "127.0.0.1:0")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait()
	defer stdin.Close()

	sc := bufio.NewScanner(stderrPipe)
	addr := ""
	var tail strings.Builder
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on http://"); i >= 0 {
			addr = strings.TrimSuffix(line[i+len("listening on http://"):], "/metrics")
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listening address on stderr (scan error: %v)", sc.Err())
	}
	// Keep draining stderr so the status line survives for the final
	// assertion.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			tail.WriteString(sc.Text())
			tail.WriteByte('\n')
		}
	}()

	if _, err := stdin.Write(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	body := scrape(t, "http://"+addr+"/metrics")
	for _, series := range []string{
		"zoomlens_shed_packets_total",
		"zoomlens_shed_bytes_total",
		"zoomlens_checkpoint_deltas_total",
		"zoomlens_checkpoint_restore_fallbacks_total",
		"zoomlens_checkpoint_tmp_cleaned_total",
		"zoomlens_report_rotations_total",
		"zoomlens_report_rotation_failures_total",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("mid-capture exposition missing %s", series)
		}
	}

	if _, err := stdin.Write(data[len(data)/2:]); err != nil {
		t.Fatal(err)
	}
	stdin.Close()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("zoomqoe: %v\n%s", err, tail.String())
	}
	<-drained
	status := lastJSONLine(t, tail.String())
	for _, key := range []string{
		"shed_packets", "shed_bytes", "checkpoints", "delta_checkpoints",
		"restore_fallbacks", "tmp_cleaned", "quarantine_dropped",
		"rotations", "rotate_failures",
	} {
		if _, ok := status[key]; !ok {
			t.Errorf("status JSON missing %q:\n%v", key, status)
		}
	}
	if n, _ := status["delta_checkpoints"].(float64); n < 1 {
		t.Errorf("delta_checkpoints = %v, want >= 1 (1s cadence over a 20s trace)", status["delta_checkpoints"])
	}
}

// TestCLIProtoCountersExposed pins the per-plugin decode counters to
// both CLI surfaces: the Prometheus exposition must carry the labeled
// zoomlens_proto_decoded_total series while a tool is mid-capture, and
// the final status JSON must report per-app decode totals matching the
// application actually on the wire.
func TestCLIProtoCountersExposed(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	pcapPath := filepath.Join(work, "webrtc.pcap")
	runTool(t, bin, "zoomsim", "-o", pcapPath, "-mode", "meeting", "-app", "webrtc", "-duration", "20s")
	data, err := os.ReadFile(pcapPath)
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(filepath.Join(bin, "zoomqoe"),
		"-i", "-", "-what", "series", "-metrics-addr", "127.0.0.1:0")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait()
	defer stdin.Close()

	sc := bufio.NewScanner(stderrPipe)
	addr := ""
	var tail strings.Builder
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on http://"); i >= 0 {
			addr = strings.TrimSuffix(line[i+len("listening on http://"):], "/metrics")
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listening address on stderr (scan error: %v)", sc.Err())
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			tail.WriteString(sc.Text())
			tail.WriteByte('\n')
		}
	}()

	if _, err := stdin.Write(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	// Poll until the webrtc plugin's counter is visibly positive.
	var mid float64
	deadline := time.Now().Add(10 * time.Second)
	for {
		body := scrape(t, "http://"+addr+"/metrics")
		fmt.Sscanf(findLine(body, `zoomlens_proto_decoded_total{proto="webrtc"} `),
			`zoomlens_proto_decoded_total{proto="webrtc"} %g`, &mid)
		if !strings.Contains(body, `zoomlens_proto_decoded_total{proto="zoom"}`) ||
			!strings.Contains(body, "zoomlens_proto_undecodable_total") {
			t.Fatalf("exposition missing per-plugin series:\n%.2000s", body)
		}
		if mid > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if mid <= 0 {
		t.Errorf(`mid-capture zoomlens_proto_decoded_total{proto="webrtc"} never went positive`)
	}

	if _, err := stdin.Write(data[len(data)/2:]); err != nil {
		t.Fatal(err)
	}
	stdin.Close()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("zoomqoe: %v\n%s", err, tail.String())
	}
	<-drained

	status := lastJSONLine(t, tail.String())
	if n, _ := status["proto_decoded_webrtc"].(float64); n <= 0 {
		t.Errorf("status proto_decoded_webrtc = %v, want > 0:\n%v", status["proto_decoded_webrtc"], status)
	}
	if n, ok := status["proto_decoded_zoom"].(float64); !ok || n != 0 {
		t.Errorf("status proto_decoded_zoom = %v, want 0 on a webrtc-only trace", status["proto_decoded_zoom"])
	}
	for _, key := range []string{"proto_undecodable", "stun_port_nonstun"} {
		if _, ok := status[key]; !ok {
			t.Errorf("status JSON missing %q:\n%v", key, status)
		}
	}
	// The per-stream series the tool printed must be proto-tagged.
	if !strings.Contains(stdout.String(), "webrtc") {
		t.Errorf("series output lacks the webrtc proto tag:\n%.800s", stdout.String())
	}
}

// scrape GETs a metrics URL, retrying briefly (the first counters may
// land an instant after the listener).
func scrape(t *testing.T, url string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && strings.Contains(string(body), "zoomlens_packets_total") {
				return string(body)
			}
			err = rerr
		}
		if time.Now().After(deadline) {
			t.Fatalf("scraping %s: %v", url, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func findLine(body, prefix string) string {
	for _, ln := range strings.Split(body, "\n") {
		if strings.HasPrefix(ln, prefix) {
			return ln
		}
	}
	return ""
}
