package qos

// Ground-truth log format. A training run needs the client-side QoS
// series on disk next to the capture: zoomsim writes one with -qos-out,
// zoomfeatures joins it against streaming feature rows to label them.
// The format is a tiny versioned CSV, one row per SDK snapshot:
//
//	#zoomlens-qos v1
//	client,time,video_fps,latency_ms,jitter_ms
//	alice,2022-05-05T09:00:01Z,24.5,120,1.2
//
// ParseLog is the untrusted-input half (fuzzed by FuzzQoSLog): it never
// panics, rejects anything that does not round-trip, and returns the
// first error with its line number.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The version line names the log format; readers reject other versions.
const (
	logVersionLine = "#zoomlens-qos v1"
	logHeader      = "client,time,video_fps,latency_ms,jitter_ms"
)

// WriteLog writes the per-client entry series as a versioned QoS log.
// Clients are emitted in name order so output is deterministic; entries
// keep their slice order. Client names must be non-empty and free of
// commas, newlines, and carriage returns (they are CSV cells).
func WriteLog(w io.Writer, clients map[string][]Entry) error {
	names := make([]string, 0, len(clients))
	for name := range clients {
		if name == "" || strings.ContainsAny(name, ",\n\r") {
			return fmt.Errorf("qos: client name %q is not a valid log cell", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, logVersionLine)
	fmt.Fprintln(bw, logHeader)
	for _, name := range names {
		for _, e := range clients[name] {
			if !finite(e.VideoFPS) || !finite(e.LatencyMS) || !finite(e.JitterMS) {
				return fmt.Errorf("qos: client %q has a non-finite stat at %s", name, e.Time.Format(time.RFC3339Nano))
			}
			fmt.Fprintf(bw, "%s,%s,%s,%s,%s\n", name,
				e.Time.UTC().Format(time.RFC3339Nano),
				fmtF(e.VideoFPS), fmtF(e.LatencyMS), fmtF(e.JitterMS))
		}
	}
	return bw.Flush()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ParseLog decodes a QoS log produced by WriteLog (or hand-written to
// the same format). It never panics on malformed input; the first
// malformed line fails the whole parse — ground truth with silently
// dropped rows would mislabel every window it covered.
func ParseLog(data []byte) (map[string][]Entry, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("qos: empty log")
	}
	if got := sc.Text(); got != logVersionLine {
		return nil, fmt.Errorf("qos: bad version line %.40q (want %q)", got, logVersionLine)
	}
	if !sc.Scan() || sc.Text() != logHeader {
		return nil, fmt.Errorf("qos: missing header %q", logHeader)
	}
	out := make(map[string][]Entry)
	lineNo := 2
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 5 {
			return nil, fmt.Errorf("qos: line %d: %d fields (want 5)", lineNo, len(fields))
		}
		name := fields[0]
		if name == "" || strings.ContainsAny(name, "\r") {
			return nil, fmt.Errorf("qos: line %d: bad client name", lineNo)
		}
		at, err := time.Parse(time.RFC3339Nano, fields[1])
		if err != nil {
			return nil, fmt.Errorf("qos: line %d: %v", lineNo, err)
		}
		var e Entry
		e.Time = at.UTC()
		// A zone offset can push the UTC normalization outside the
		// four-digit years RFC3339 can express, which would break the
		// write/parse round trip.
		if y := e.Time.Year(); y < 0 || y > 9999 {
			return nil, fmt.Errorf("qos: line %d: timestamp year %d out of range", lineNo, y)
		}
		for i, dst := range []*float64{&e.VideoFPS, &e.LatencyMS, &e.JitterMS} {
			v, err := strconv.ParseFloat(fields[2+i], 64)
			if err != nil || !finite(v) {
				return nil, fmt.Errorf("qos: line %d: bad stat %q", lineNo, fields[2+i])
			}
			*dst = v
		}
		out[name] = append(out[name], e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("qos: %v", err)
	}
	return out, nil
}
