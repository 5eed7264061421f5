// The aggregator proper: worker engine states and observation logs
// merged into one sequential-equivalent analyzer (byte-identical to a
// single-engine run over the same capture), and the operational outputs
// — status JSON lines, Prometheus text expositions, rotated window
// reports — merged into one meeting-level view. It lives beside main
// rather than in internal/cluster because restoring worker state rides
// the engine driver's chain-aware checkpoint restore (internal/engine),
// which the cluster package must not import.

package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"zoomlens/internal/cluster"
	"zoomlens/internal/core"
	"zoomlens/internal/engine"
)

// loadPart restores one worker's engine state (a checkpoint chain base
// or one checkpoint file, exactly as -restore accepts). Cluster workers
// run sequentially, so a parallel-engine checkpoint is rejected — its
// shard-partitioned state belongs to an in-process pipeline, not a
// cluster part.
func loadPart(path string, cfg core.Config) (*core.Analyzer, error) {
	eng, _, err := engine.RestoreEngine(path, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("part %s: %w", path, err)
	}
	a, ok := eng.(*core.Analyzer)
	if !ok {
		core.Discard(eng)
		return nil, fmt.Errorf("part %s holds a parallel engine state; cluster workers run with -workers 1", path)
	}
	return a, nil
}

// aggregate merges a cluster run: the manifest's head counters, each
// worker's pre-Finish engine state, and the k-way merged observation
// logs. The returned analyzer has not been finished — Checkpoint it to
// keep the merged state portable, or Finish it to read the report.
// obsPaths may exceed statePaths when a migrated worker left logs from
// more than one life; order does not matter (the merge is by sequence
// number).
func aggregate(cfg core.Config, man cluster.Manifest, statePaths, obsPaths []string) (*core.Analyzer, error) {
	// Workers ran pre-filtered (the splitter already classified), but
	// the merged analyzer stands in for a single engine over the raw
	// capture; it must not inherit the workers' PreFiltered view.
	parts := make([]*core.Analyzer, 0, len(statePaths))
	for _, p := range statePaths {
		a, err := loadPart(p, cfg)
		if err != nil {
			return nil, err
		}
		parts = append(parts, a)
	}
	readers := make([]*cluster.ObsReader, 0, len(obsPaths))
	for _, p := range obsPaths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("obs log: %w", err)
		}
		or, err := cluster.NewObsReader(data)
		if err != nil {
			return nil, fmt.Errorf("obs log %s: %w", p, err)
		}
		readers = append(readers, or)
	}
	next, errf := cluster.MergeObs(readers)
	merged := core.MergeCluster(cfg, parts, man.Head(), next)
	if err := errf(); err != nil {
		return nil, fmt.Errorf("observation replay: %w", err)
	}
	return merged, nil
}

// mergeStatus merges per-worker status JSON lines into one object:
// numeric fields sum, booleans OR, strings keep the first non-empty
// value. It is an operational roll-up (counts of what the fleet did),
// not part of the byte-identical report path.
func mergeStatus(lines [][]byte) ([]byte, error) {
	var merged map[string]any
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal(ln, &m); err != nil {
			return nil, fmt.Errorf("status line %d: %w", i, err)
		}
		if merged == nil {
			merged = m
			continue
		}
		statusRules.merge("", merged, m)
	}
	if merged == nil {
		return nil, fmt.Errorf("no status lines")
	}
	return json.Marshal(merged)
}

// mergeRules are the per-key rules of a JSON roll-up: how two numbers
// and two strings under the same key combine.
type mergeRules struct {
	num func(key string, a, b float64) float64
	str func(key, a, b string) string
}

// statusRules: counters sum, the first non-empty string wins.
var statusRules = mergeRules{
	num: func(_ string, a, b float64) float64 { return a + b },
	str: func(_, a, b string) string { return cmp.Or(a, b) },
}

// windowRules: summary fields sum, except that the window index is the
// same by construction and Duration takes the max; the window bounds
// take the union (RFC3339 timestamps order lexicographically) and every
// other string keeps the first value.
var windowRules = mergeRules{
	num: func(key string, a, b float64) float64 {
		switch key {
		case "window":
			return a
		case "Duration":
			return max(a, b)
		}
		return a + b
	},
	str: func(key, a, b string) string {
		switch key {
		case "start":
			return min(a, b)
		case "end":
			return max(a, b)
		}
		return a
	},
}

// merge folds b into a under key: numbers and strings by the rules,
// bools OR, objects key by key (in place). A missing a yields b;
// mismatched types keep a.
func (r mergeRules) merge(key string, a, b any) any {
	switch av := a.(type) {
	case nil:
		return b
	case float64:
		if bv, ok := b.(float64); ok {
			return r.num(key, av, bv)
		}
	case bool:
		if bv, ok := b.(bool); ok {
			return av || bv
		}
	case string:
		if bv, ok := b.(string); ok {
			return r.str(key, av, bv)
		}
	case map[string]any:
		if bv, ok := b.(map[string]any); ok {
			for k, v := range bv {
				av[k] = r.merge(k, av[k], v)
			}
			return av
		}
	}
	return a
}

// mergeProm merges Prometheus text expositions: samples with the same
// series (name plus label set) sum; HELP/TYPE headers and series order
// follow the first exposition they appear in. Counters sum exactly;
// gauges sum too, which is the meaningful cluster roll-up for the
// occupancy and backlog gauges the engine exports.
func mergeProm(dumps []string) string {
	type series struct {
		key   string
		value float64
	}
	var order []string // series keys + comment lines, first-seen order
	seen := map[string]int{}
	var vals []series
	for _, dump := range dumps {
		for _, ln := range strings.Split(dump, "\n") {
			if ln == "" {
				continue
			}
			if strings.HasPrefix(ln, "#") {
				if _, ok := seen[ln]; !ok {
					seen[ln] = -1
					order = append(order, ln)
				}
				continue
			}
			sp := strings.LastIndexByte(ln, ' ')
			if sp < 0 {
				continue
			}
			key := ln[:sp]
			v, err := strconv.ParseFloat(ln[sp+1:], 64)
			if err != nil {
				continue
			}
			if idx, ok := seen[key]; ok && idx >= 0 {
				vals[idx].value += v
				continue
			}
			seen[key] = len(vals)
			vals = append(vals, series{key: key, value: v})
			order = append(order, key)
		}
	}
	var b strings.Builder
	for _, ln := range order {
		if idx, ok := seen[ln]; ok && idx >= 0 {
			fmt.Fprintf(&b, "%s %s\n", vals[idx].key,
				strconv.FormatFloat(vals[idx].value, 'g', -1, 64))
			continue
		}
		b.WriteString(ln)
		b.WriteByte('\n')
	}
	return b.String()
}

// mergeWindowFiles merges per-worker rotated window reports: for every
// window index present under any prefix, the workers' files merge into
// <outPrefix>-NNNN.json (numeric summary fields sum, Duration and End
// take the max, Start the min). Worker windows rotate on each worker's
// own trace clock, so this is an approximate operational view — the
// byte-identical path is the state + observation-log merge.
func mergeWindowFiles(prefixes []string, outPrefix string) (int, error) {
	byIndex := map[int][]map[string]any{}
	for _, p := range prefixes {
		for idx := 0; ; idx++ {
			data, err := os.ReadFile(fmt.Sprintf("%s-%04d.json", p, idx))
			if err != nil {
				break
			}
			var m map[string]any
			if err := json.Unmarshal(data, &m); err != nil {
				return 0, fmt.Errorf("window %s-%04d.json: %w", p, idx, err)
			}
			byIndex[idx] = append(byIndex[idx], m)
		}
	}
	indexes := make([]int, 0, len(byIndex))
	for idx := range byIndex {
		indexes = append(indexes, idx)
	}
	sort.Ints(indexes)
	for _, idx := range indexes {
		ms := byIndex[idx]
		merged := ms[0]
		for _, m := range ms[1:] {
			windowRules.merge("", merged, m)
		}
		data, err := json.Marshal(merged)
		if err != nil {
			return 0, err
		}
		path := fmt.Sprintf("%s-%04d.json", outPrefix, idx)
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return 0, err
		}
	}
	return len(indexes), nil
}
