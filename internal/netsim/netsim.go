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
	"math/rand"
	"time"
)

// Engine is a run-to-completion discrete event simulator. Events wait by
// value in a binary min-heap ordered on (time, scheduling sequence), a
// strict total order, so equal-time events fire in the order they were
// scheduled and scheduling allocates nothing per event.
type Engine struct {
	start time.Time
	now   time.Time
	// nowNS is now as nanoseconds since start: events are keyed by
	// their offset from the engine's start, which unlike UnixNano stays
	// defined for any start date (offsets saturate 292 years out, as
	// time.Duration does).
	nowNS int64
	queue []event
	seq   uint64 // tiebreaker for deterministic ordering
}

// NewEngine starts the virtual clock at start.
func NewEngine(start time.Time) *Engine {
	return &Engine{start: start, now: start}
}

// Now returns the current virtual time (in UTC once an event has run).
func (e *Engine) Now() time.Time { return e.now }

// Schedule runs f at the given virtual time. Times in the past run "now"
// (immediately on the next dispatch), preserving causal order.
func (e *Engine) Schedule(at time.Time, f func()) { e.push(at, f, nil) }

// After schedules f after a virtual delay.
func (e *Engine) After(d time.Duration, f func()) { e.Schedule(e.now.Add(d), f) }

// Run dispatches events until the queue is empty or the clock passes
// until. Events at exactly until still run.
func (e *Engine) Run(until time.Time) {
	lim := int64(until.Sub(e.start))
	for len(e.queue) > 0 && e.queue[0].at <= lim {
		ev := e.pop()
		e.nowNS = ev.at
		e.now = e.start.Add(time.Duration(ev.at)).UTC()
		if ev.arrive != nil {
			ev.arrive(e.now)
		} else {
			ev.f()
		}
	}
}

type event struct {
	at  int64 // nanoseconds since the engine's start
	seq uint64
	f   func()
	// arrive, when set, runs instead of f and is handed the event's
	// time: Link.Send's callback, scheduled without a closure around it.
	arrive func(time.Time)
}

func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push queues f (or arrive) at at, clamped to now, sifting the new event
// up from the heap's end.
func (e *Engine) push(at time.Time, f func(), arrive func(time.Time)) {
	e.seq++
	ev := event{at: int64(at.Sub(e.start)), seq: e.seq, f: f, arrive: arrive}
	if ev.at < e.nowNS {
		ev.at = e.nowNS
	}
	e.queue = append(e.queue, ev)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// pop removes the earliest event, sifting the last one down from the
// root into the hole.
func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // release the callbacks
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
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
	l.eng.push(at, nil, deliver)
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
