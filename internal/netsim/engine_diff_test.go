package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refEngine is the engine the typed heap replaced, kept as the
// differential's reference: *event pointers in a container/heap queue,
// keyed by UnixNano (valid for the fixture dates used here).
type refEngine struct {
	now   time.Time
	queue refQueue
	seq   uint64
}

type refEvent struct {
	at  int64
	seq uint64
	f   func()
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

func (e *refEngine) Now() time.Time { return e.now }
func (e *refEngine) Pending() int   { return e.queue.Len() }
func (e *refEngine) Schedule(at time.Time, f func()) {
	if at.Before(e.now) {
		at = e.now
	}
	e.seq++
	heap.Push(&e.queue, &refEvent{at: at.UnixNano(), seq: e.seq, f: f})
}
func (e *refEngine) After(d time.Duration, f func()) { e.Schedule(e.now.Add(d), f) }
func (e *refEngine) Run(until time.Time) {
	for e.queue.Len() > 0 && e.queue[0].at <= until.UnixNano() {
		ev := heap.Pop(&e.queue).(*refEvent)
		e.now = time.Unix(0, ev.at).UTC()
		ev.f()
	}
}

// scheduler is what the differential drives: Engine and refEngine.
type scheduler interface {
	Schedule(at time.Time, f func())
	After(d time.Duration, f func())
	Run(until time.Time)
	Now() time.Time
	Pending() int
}

// runProgram interprets data as a schedule and returns what happened, one
// line per firing and per Run boundary. Every choice comes from data in
// firing order, so two engines that fire in the same order read the same
// program; one that fires differently diverges in the log. The program
// covers equal timestamps (times are whole milliseconds from a small
// range), events scheduled from inside running events, past times that
// must clamp to now, and Run boundaries that fall on, between and before
// event times.
func runProgram(e scheduler, data []byte) []string {
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		i++
		return int(data[i-1])
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var log []string
	ids := 0
	var spawn func(at time.Time, after time.Duration, useAfter bool)
	spawn = func(at time.Time, after time.Duration, useAfter bool) {
		if ids >= 4000 {
			return
		}
		ids++
		id := ids
		fire := func() {
			log = append(log, fmt.Sprintf("fire %d at %d", id, e.Now().Sub(t0)))
			for k := next() % 4; k > 0; k-- {
				switch next() % 4 {
				case 0:
					spawn(time.Time{}, ms(next()%4), true)
				case 1: // in the past: clamps to now
					spawn(e.Now().Add(-ms(1+next()%3)), 0, false)
				case 2:
					spawn(e.Now().Add(ms(next()%8)), 0, false)
				default:
					spawn(time.Time{}, 0, true)
				}
			}
		}
		if useAfter {
			e.After(after, fire)
		} else {
			e.Schedule(at, fire)
		}
	}
	for n := 1 + next()%16; n > 0; n-- {
		spawn(t0.Add(ms(next()%8)), 0, false)
	}
	until := t0
	for steps := next() % 6; steps > 0; steps-- {
		until = until.Add(ms(next()%12) - ms(2))
		e.Run(until)
		log = append(log, fmt.Sprintf("run %d: now %d pending %d", until.Sub(t0), e.Now().Sub(t0), e.Pending()))
	}
	e.Run(t0.Add(time.Hour))
	log = append(log, fmt.Sprintf("end: now %v pending %d", e.Now(), e.Pending()))
	return log
}

func checkEngineVsReference(t *testing.T, data []byte) {
	got := runProgram(NewEngine(t0), data)
	want := runProgram(&refEngine{now: t0}, data)
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("line %d: engine %q, container/heap reference %q", i, g, w)
		}
	}
}

// TestEngineMatchesHeapReference runs random schedules through the typed
// heap and the container/heap reference: the same firings at the same
// times in the same order, and the same clock and backlog at every Run
// boundary.
func TestEngineMatchesHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 64+rng.Intn(2048))
		rng.Read(data)
		checkEngineVsReference(t, data)
	}
}

// FuzzEngineVsHeap is TestEngineMatchesHeapReference over fuzzed
// schedules.
func FuzzEngineVsHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{15, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 1, 2})
	f.Add([]byte{4, 7, 7, 7, 7, 3, 1, 2, 3, 1, 1, 0, 2, 5, 5, 11, 0, 3})
	f.Fuzz(checkEngineVsReference)
}

// TestEngineFiveClocks holds the engine and Link.Send to the hostile-clock
// rule's five clocks. Each row is a chain of clock readings: the event
// for a reading schedules the next one and sends on a 5 ms link. An
// event fires at its reading, or at the current time if the reading is
// behind it, and the link delivers exactly 5 ms after the send; every
// stamp is in UTC. Keying events by UnixNano, as the engine once did,
// mis-stamps the year-3000 row.
func TestEngineFiveClocks(t *testing.T) {
	y3000 := time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)
	local := time.FixedZone("UTC+2", 2*3600)
	cases := []struct {
		name     string
		start    time.Time
		readings []time.Duration // offsets from start
	}{
		{"monotone", t0, []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}},
		{"duplicate", t0, []time.Duration{time.Second, time.Second, time.Second}},
		{"1s-backward", t0, []time.Duration{2 * time.Second, time.Second, 3 * time.Second}},
		{"1y-forward", t0.In(local), []time.Duration{time.Second, 365 * 24 * time.Hour, 365*24*time.Hour + time.Second}},
		{"year-3000", y3000, []time.Duration{time.Second, time.Second, 0, 2 * time.Second}},
	}
	const linkDelay = 5 * time.Millisecond
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(tc.start)
			l := NewLink(e, linkDelay, 0, 0, 1)
			var fired, delivered []time.Time
			var step func(i int) func()
			step = func(i int) func() {
				return func() {
					fired = append(fired, e.Now())
					ok, at := l.Send(func(arrival time.Time) {
						if !arrival.Equal(e.Now()) {
							t.Errorf("delivery handed %v, clock reads %v", arrival, e.Now())
						}
						delivered = append(delivered, arrival)
					})
					if !ok || !at.Equal(e.Now().Add(linkDelay)) {
						t.Errorf("Send at %v: ok=%v arrival %v", e.Now(), ok, at)
					}
					if i+1 < len(tc.readings) {
						e.Schedule(tc.start.Add(tc.readings[i+1]), step(i+1))
					}
				}
			}
			e.Schedule(tc.start.Add(tc.readings[0]), step(0))
			last := tc.start.Add(tc.readings[len(tc.readings)-1])
			// A boundary one nanosecond short of the last reading leaves
			// it (and its delivery) queued.
			e.Run(last.Add(-time.Nanosecond))
			if e.Pending() == 0 {
				t.Fatalf("Run stopped short of %v but nothing is pending", last)
			}
			e.Run(last.Add(linkDelay))
			if e.Pending() != 0 {
				t.Fatalf("%d events still pending", e.Pending())
			}

			var want time.Time
			for i, r := range tc.readings {
				if at := tc.start.Add(r); i == 0 || at.After(want) {
					want = at
				}
				if i >= len(fired) {
					t.Fatalf("reading %d never fired (fired %v)", i, fired)
				}
				if !fired[i].Equal(want) || fired[i].Location() != time.UTC {
					t.Errorf("reading %d fired at %v, want %v in UTC", i, fired[i], want.UTC())
				}
				if !delivered[i].Equal(want.Add(linkDelay)) || delivered[i].Location() != time.UTC {
					t.Errorf("delivery %d at %v, want %v in UTC", i, delivered[i], want.Add(linkDelay).UTC())
				}
			}
		})
	}
}
