// Package obs is the live observability layer for the analysis
// pipeline: a dependency-free metric registry (atomic counters, gauges,
// and histograms rendered in Prometheus text exposition format), an
// optional HTTP endpoint serving /metrics plus expvar and pprof, and a
// lightweight stage-tracing hook.
//
// The paper's pitch is *continuous* passive monitoring; an operator
// watching a live tap needs to see packets per decode stage, state-table
// occupancy against the bounded-state caps, recovered panics, and
// rolling QoE — while the capture is still running, not after Finish.
// Counters and gauges are single atomics with no locks after
// registration. The analyzer does not add to them per event: it counts
// each event once in its own tallies and pushes what they gained every
// few thousand frames and at every quiesce (internal/core/obs.go), so
// the hot path pays nothing per packet.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (e.g. {stage="media"}, {shard="3"}).
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Store mirrors an externally maintained cumulative value into the
// counter (for state that already keeps its own monotone totals).
func (c *Counter) Store(v uint64) {
	if c == nil {
		return
	}
	c.v.Store(v)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram, safe for concurrent
// observation.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; implicit +Inf last
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // Float64bits accumulator
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DefBuckets is a general-purpose duration bucket ladder in seconds.
var DefBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// series is one (labelset, value) inside a family.
type series struct {
	labels    string // rendered {k="v",...} or ""
	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
	lblPairs  []Label
}

// family groups all series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	order  []string
	series map[string]*series
}

// Registry holds named metrics and renders them. Registration takes a
// lock; registered Counter/Gauge/Histogram handles are lock-free.
// Registering the same name and label set twice returns the same handle,
// so independent pipeline components can share counters safely.
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) seriesFor(name, help string, kind metricKind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	key := renderLabels(labels)
	s := f.series[key]
	if s == nil {
		s = &series{labels: key, lblPairs: labels}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter registers (or looks up) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.seriesFor(name, help, kindCounter, labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge registers (or looks up) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.seriesFor(name, help, kindGauge, labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram registers (or looks up) a histogram with the given upper
// bucket bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.seriesFor(name, help, kindHistogram, labels)
	if s.histogram == nil {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		bounds := make([]float64, len(buckets))
		copy(bounds, buckets)
		s.histogram = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}
	return s.histogram
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		typ := "counter"
		switch f.kind {
		case kindGauge:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typ); err != nil {
			return err
		}
		for _, key := range f.order {
			s := f.series[key]
			var err error
			switch f.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.gauge.Value())
			case kindHistogram:
				err = writeHistogram(w, f.name, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, s *series) error {
	h := s.histogram
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLE(s.lblPairs, formatFloat(bound)), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLE(s.lblPairs, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, s.labels, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, h.Count())
	return err
}

func mergeLE(labels []Label, le string) string {
	merged := make([]Label, 0, len(labels)+1)
	merged = append(merged, labels...)
	merged = append(merged, Label{Key: "le", Value: le})
	return renderLabels(merged)
}

func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}
