package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracer receives coarse stage timings so tools can report where
// wall-clock goes (pcap read, analysis, merge, report emission). The
// default is no tracer at all: every hook site accepts nil, and Stage on
// a nil Tracer costs one branch.
type Tracer interface {
	// StageDone records that one execution of the named stage took d.
	StageDone(stage string, d time.Duration)
}

// Stage starts timing a stage and returns the completion function:
//
//	defer obs.Stage(tr, "merge")()
//
// A nil tracer yields a no-op closure.
func Stage(tr Tracer, name string) func() {
	if tr == nil {
		return func() {}
	}
	start := time.Now()
	return func() { tr.StageDone(name, time.Since(start)) }
}

// StageStats is a Tracer accumulating per-stage call counts and total
// durations. Safe for concurrent use.
type StageStats struct {
	mu     sync.Mutex
	order  []string
	totals map[string]*stageAgg
}

type stageAgg struct {
	calls uint64
	total time.Duration
}

// NewStageStats returns an empty accumulator.
func NewStageStats() *StageStats {
	return &StageStats{totals: make(map[string]*stageAgg)}
}

// StageDone implements Tracer.
func (s *StageStats) StageDone(stage string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.totals[stage]
	if a == nil {
		a = &stageAgg{}
		s.totals[stage] = a
		s.order = append(s.order, stage)
	}
	a.calls++
	a.total += d
}

// Report renders an aligned per-stage breakdown, stages ordered by total
// time descending.
func (s *StageStats) Report() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	stages := make([]string, len(s.order))
	copy(stages, s.order)
	sort.SliceStable(stages, func(i, j int) bool {
		return s.totals[stages[i]].total > s.totals[stages[j]].total
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %14s %14s\n", "stage", "calls", "total", "mean")
	for _, st := range stages {
		a := s.totals[st]
		mean := time.Duration(0)
		if a.calls > 0 {
			mean = a.total / time.Duration(a.calls)
		}
		fmt.Fprintf(&b, "%-24s %10d %14s %14s\n", st, a.calls, a.total.Round(time.Microsecond), mean.Round(time.Microsecond))
	}
	return b.String()
}

// RegistryTracer is a Tracer that feeds per-stage duration histograms in
// a Registry, so stage timings show up on the /metrics endpoint.
type RegistryTracer struct {
	reg *Registry

	mu     sync.Mutex
	stages map[string]*Histogram
}

// NewRegistryTracer returns a tracer recording into reg as
// zoomlens_stage_duration_seconds{stage="..."}.
func NewRegistryTracer(reg *Registry) *RegistryTracer {
	return &RegistryTracer{reg: reg, stages: make(map[string]*Histogram)}
}

// StageDone implements Tracer.
func (rt *RegistryTracer) StageDone(stage string, d time.Duration) {
	rt.mu.Lock()
	h := rt.stages[stage]
	if h == nil {
		h = rt.reg.Histogram("zoomlens_stage_duration_seconds",
			"Wall-clock spent per pipeline stage.", DefBuckets, L("stage", stage))
		rt.stages[stage] = h
	}
	rt.mu.Unlock()
	h.Observe(d.Seconds())
}

// MultiTracer fans one timing out to several tracers.
type MultiTracer []Tracer

// StageDone implements Tracer.
func (m MultiTracer) StageDone(stage string, d time.Duration) {
	for _, tr := range m {
		if tr != nil {
			tr.StageDone(stage, d)
		}
	}
}
