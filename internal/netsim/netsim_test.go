package netsim

import (
	"testing"
	"time"
)

var t0 = time.Date(2022, 5, 5, 9, 0, 0, 0, time.UTC)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(t0)
	var got []int
	e.Schedule(t0.Add(3*time.Second), func() { got = append(got, 3) })
	e.Schedule(t0.Add(1*time.Second), func() { got = append(got, 1) })
	e.Schedule(t0.Add(2*time.Second), func() { got = append(got, 2) })
	e.Run(t0.Add(time.Minute))
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if e.Now() != t0.Add(3*time.Second) {
		t.Errorf("now = %v", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine(t0)
	var got []int
	at := t0.Add(time.Second)
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(at, func() { got = append(got, i) })
	}
	e.Run(t0.Add(time.Minute))
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestEngineRunUntilStopsEarly(t *testing.T) {
	e := NewEngine(t0)
	ran := 0
	e.Schedule(t0.Add(time.Second), func() { ran++ })
	e.Schedule(t0.Add(time.Hour), func() { ran++ })
	e.Run(t0.Add(time.Minute))
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d", e.Pending())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(t0)
	var times []time.Time
	e.Schedule(t0.Add(time.Second), func() {
		e.After(time.Second, func() { times = append(times, e.Now()) })
	})
	e.Run(t0.Add(time.Minute))
	if len(times) != 1 || !times[0].Equal(t0.Add(2*time.Second)) {
		t.Errorf("times = %v", times)
	}
}

func TestEnginePastEventsRunNow(t *testing.T) {
	e := NewEngine(t0)
	var at time.Time
	e.Schedule(t0.Add(time.Second), func() {
		e.Schedule(t0, func() { at = e.Now() }) // in the past
	})
	e.Run(t0.Add(time.Minute))
	if !at.Equal(t0.Add(time.Second)) {
		t.Errorf("past event ran at %v", at)
	}
}

func TestLinkDelivery(t *testing.T) {
	e := NewEngine(t0)
	l := NewLink(e, 20*time.Millisecond, 0, 0, 1)
	var arrived time.Time
	ok, at := l.Send(func(a time.Time) { arrived = a })
	if !ok {
		t.Fatal("lossless link dropped a packet")
	}
	e.Run(t0.Add(time.Second))
	if !arrived.Equal(t0.Add(20*time.Millisecond)) || !at.Equal(arrived) {
		t.Errorf("arrived = %v, at = %v", arrived, at)
	}
}

func TestLinkLossRate(t *testing.T) {
	e := NewEngine(t0)
	l := NewLink(e, time.Millisecond, 0, 0.3, 42)
	lost := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if ok, _ := l.Send(func(time.Time) {}); !ok {
			lost++
		}
	}
	rate := float64(lost) / n
	if rate < 0.27 || rate > 0.33 {
		t.Errorf("loss rate = %v, want ~0.3", rate)
	}
}

func TestLinkJitterBounds(t *testing.T) {
	e := NewEngine(t0)
	l := NewLink(e, 10*time.Millisecond, 5*time.Millisecond, 0, 7)
	for i := 0; i < 1000; i++ {
		ok, at := l.Send(func(time.Time) {})
		if !ok {
			t.Fatal("unexpected loss")
		}
		d := at.Sub(t0)
		if d < 10*time.Millisecond || d >= 15*time.Millisecond {
			t.Fatalf("delay %v out of [10ms,15ms)", d)
		}
	}
}

func TestLinkCongestionEpisode(t *testing.T) {
	e := NewEngine(t0)
	l := NewLink(e, 10*time.Millisecond, 0, 0, 9)
	l.Episodes = []Congestion{{
		Start:      t0.Add(time.Second),
		End:        t0.Add(2 * time.Second),
		ExtraDelay: 40 * time.Millisecond,
	}}
	// Before the episode.
	_, at := l.Send(func(time.Time) {})
	if got := at.Sub(t0); got != 10*time.Millisecond {
		t.Errorf("pre-episode delay = %v", got)
	}
	// During.
	e.Schedule(t0.Add(1500*time.Millisecond), func() {
		_, at := l.Send(func(time.Time) {})
		if got := at.Sub(e.Now()); got != 50*time.Millisecond {
			t.Errorf("mid-episode delay = %v", got)
		}
	})
	// After.
	e.Schedule(t0.Add(3*time.Second), func() {
		_, at := l.Send(func(time.Time) {})
		if got := at.Sub(e.Now()); got != 10*time.Millisecond {
			t.Errorf("post-episode delay = %v", got)
		}
	})
	e.Run(t0.Add(time.Minute))

	min, max := l.CurrentDelayBounds(t0.Add(1500 * time.Millisecond))
	if min != 50*time.Millisecond || max != 50*time.Millisecond {
		t.Errorf("bounds = [%v,%v]", min, max)
	}
}

func TestLinkDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		e := NewEngine(t0)
		l := NewLink(e, 10*time.Millisecond, 8*time.Millisecond, 0.1, seed)
		var out []time.Duration
		for i := 0; i < 50; i++ {
			if ok, at := l.Send(func(time.Time) {}); ok {
				out = append(out, at.Sub(t0))
			} else {
				out = append(out, -1)
			}
		}
		return out
	}
	a, b := run(5), run(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	c := run(6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}
