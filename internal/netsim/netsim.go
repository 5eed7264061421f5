// Package netsim is a small discrete-event network simulator: a virtual
// clock with an event queue, and point-to-point links with configurable
// delay, jitter, loss, and scheduled congestion episodes.
//
// It stands in for the physical networks of the paper's controlled
// experiments (§5, Figure 10: a two-party call with injected
// cross-traffic) and campus deployment (§6), so that the analysis
// pipeline can be exercised on byte-exact Zoom traffic with known ground
// truth.
package netsim

import (
	"container/heap"
	"math/rand"
	"time"
)

// Engine is a run-to-completion discrete event simulator.
type Engine struct {
	now   time.Time
	queue eventQueue
	seq   uint64 // tiebreaker for deterministic ordering
}

// NewEngine starts the virtual clock at start.
func NewEngine(start time.Time) *Engine {
	return &Engine{now: start}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.now }

// Schedule runs f at the given virtual time. Times in the past run "now"
// (immediately on the next dispatch), preserving causal order.
func (e *Engine) Schedule(at time.Time, f func()) {
	if at.Before(e.now) {
		at = e.now
	}
	e.seq++
	heap.Push(&e.queue, &event{at: at.UnixNano(), seq: e.seq, f: f})
}

// After schedules f after a virtual delay.
func (e *Engine) After(d time.Duration, f func()) { e.Schedule(e.now.Add(d), f) }

// Run dispatches events until the queue is empty or the clock passes
// until. Events at exactly until still run.
func (e *Engine) Run(until time.Time) {
	lim := until.UnixNano()
	for e.queue.Len() > 0 {
		ev := e.queue[0]
		if ev.at > lim {
			return
		}
		heap.Pop(&e.queue)
		e.now = time.Unix(0, ev.at).UTC()
		ev.f()
	}
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.queue.Len() }

type event struct {
	at  int64 // UnixNano; avoids time.Time comparison cost in the hot heap
	seq uint64
	f   func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Congestion is a scheduled impairment episode on a link, modeling the
// cross-traffic injections of §5 ("we introduced cross-traffic twice
// during each call by running a network bandwidth test").
type Congestion struct {
	Start      time.Time
	End        time.Time
	ExtraDelay time.Duration
	// ExtraJitter is the additional uniform jitter amplitude.
	ExtraJitter time.Duration
	// LossRate is the additional loss probability (0..1).
	LossRate float64
}

// Active reports whether the episode covers t.
func (c Congestion) Active(t time.Time) bool {
	return !t.Before(c.Start) && t.Before(c.End)
}

// Link is a unidirectional path segment with delay, jitter, and loss.
// Delivery order is not enforced: a large jitter draw can reorder
// packets, as on real networks.
type Link struct {
	// BaseDelay is the propagation+processing delay.
	BaseDelay time.Duration
	// Jitter is the amplitude of uniform random extra delay in
	// [0, Jitter).
	Jitter time.Duration
	// LossRate is the steady-state loss probability (0..1).
	LossRate float64
	// Episodes are scheduled congestion periods.
	Episodes []Congestion

	rng *rand.Rand
	eng *Engine
}

// NewLink builds a link bound to an engine with its own deterministic
// random stream.
func NewLink(eng *Engine, base, jitter time.Duration, loss float64, seed int64) *Link {
	return &Link{
		BaseDelay: base,
		Jitter:    jitter,
		LossRate:  loss,
		rng:       rand.New(rand.NewSource(seed)),
		eng:       eng,
	}
}

// Send transmits: deliver runs after the sampled delay unless the packet
// is lost. It returns whether the packet survived and the sampled
// arrival time (zero time if lost).
func (l *Link) Send(deliver func(arrival time.Time)) (ok bool, arrival time.Time) {
	now := l.eng.Now()
	delay := l.BaseDelay
	jitter := l.Jitter
	loss := l.LossRate
	for _, ep := range l.Episodes {
		if ep.Active(now) {
			delay += ep.ExtraDelay
			jitter += ep.ExtraJitter
			loss += ep.LossRate
		}
	}
	if loss > 0 && l.rng.Float64() < loss {
		return false, time.Time{}
	}
	if jitter > 0 {
		delay += time.Duration(l.rng.Int63n(int64(jitter)))
	}
	at := now.Add(delay)
	l.eng.Schedule(at, func() { deliver(at) })
	return true, at
}

// CurrentDelayBounds returns the min and max one-way delay at time t
// (base plus active episodes, with and without jitter). Useful for
// ground-truth latency reporting.
func (l *Link) CurrentDelayBounds(t time.Time) (min, max time.Duration) {
	min = l.BaseDelay
	j := l.Jitter
	for _, ep := range l.Episodes {
		if ep.Active(t) {
			min += ep.ExtraDelay
			j += ep.ExtraJitter
		}
	}
	return min, min + j
}
