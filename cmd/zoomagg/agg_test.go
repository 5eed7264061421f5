package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMergeStatus(t *testing.T) {
	a := []byte(`{"partial":false,"reason":"","packets":10,"rotations":1,"truncated":false}`)
	b := []byte(`{"partial":true,"reason":"interrupted","packets":32,"rotations":2,"truncated":false}`)
	out, err := mergeStatus([][]byte{a, b})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	if got := m["packets"].(float64); got != 42 {
		t.Errorf("packets = %v, want 42 (summed)", got)
	}
	if got := m["rotations"].(float64); got != 3 {
		t.Errorf("rotations = %v, want 3", got)
	}
	if m["partial"] != true {
		t.Errorf("partial = %v, want true (ORed)", m["partial"])
	}
	if m["reason"] != "interrupted" {
		t.Errorf("reason = %v, want first non-empty string", m["reason"])
	}
	if _, err := mergeStatus(nil); err == nil {
		t.Error("mergeStatus(nil) did not fail")
	}
}

func TestMergeProm(t *testing.T) {
	d1 := "# HELP x packets\n# TYPE x counter\nx 3\ny{shard=\"0\"} 1\n"
	d2 := "# HELP x packets\n# TYPE x counter\nx 4\ny{shard=\"1\"} 5\n"
	out := mergeProm([]string{d1, d2})
	for _, want := range []string{
		"# HELP x packets\n",
		"x 7\n",
		"y{shard=\"0\"} 1\n",
		"y{shard=\"1\"} 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged exposition lacks %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# HELP x") != 1 {
		t.Errorf("duplicate HELP header:\n%s", out)
	}
	// Order: comments precede their first series, first-seen order kept.
	if !strings.HasPrefix(out, "# HELP x packets\n# TYPE x counter\nx 7\n") {
		t.Errorf("merged exposition order wrong:\n%s", out)
	}
}

func TestMergeWindowFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(prefix string, idx int, body string) {
		t.Helper()
		path := filepath.Join(dir, fmt.Sprintf("%s-%04d.json", prefix, idx))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a", 0, `{"window":0,"start":"2022-01-01T00:00:00Z","end":"2022-01-01T00:01:00Z","summary":{"Packets":5}}`)
	write("b", 0, `{"window":0,"start":"2022-01-01T00:00:10Z","end":"2022-01-01T00:01:30Z","summary":{"Packets":7}}`)
	write("a", 1, `{"window":1,"start":"2022-01-01T00:01:00Z","end":"2022-01-01T00:02:00Z","summary":{"Packets":2}}`)

	n, err := mergeWindowFiles([]string{filepath.Join(dir, "a"), filepath.Join(dir, "b")}, filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("merged %d windows, want 2", n)
	}
	data, err := os.ReadFile(filepath.Join(dir, "out-0000.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if got := m["window"].(float64); got != 0 {
		t.Errorf("window = %v, want 0 (not summed)", got)
	}
	if got := m["start"].(string); got != "2022-01-01T00:00:00Z" {
		t.Errorf("start = %q, want min", got)
	}
	if got := m["end"].(string); got != "2022-01-01T00:01:30Z" {
		t.Errorf("end = %q, want max", got)
	}
	if got := m["summary"].(map[string]any)["Packets"].(float64); got != 12 {
		t.Errorf("summary packets = %v, want 12 (summed)", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "out-0001.json")); err != nil {
		t.Errorf("singleton window not carried through: %v", err)
	}
}
