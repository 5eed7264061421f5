package metrics

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/meeting"
)

// mapMatcher is the matcher as it was before the rings, kept as the
// reference the ring matcher is compared against: one map entry per
// (unified stream, payload type, sequence number, timestamp), no horizon
// but copyMaxAge and no cap.
type mapMatcher struct {
	pending map[mapKey]mapObs
	samples []RTTSample
}

type mapKey struct {
	unified meeting.UnifiedID
	pt      uint8
	seq     uint16
	ts      uint32
}

type mapObs struct {
	at   time.Time
	flow layers.FiveTuple
}

func (m *mapMatcher) Observe(unified meeting.UnifiedID, flow layers.FiveTuple, pt uint8, seq uint16, ts uint32, at time.Time) (RTTSample, bool) {
	if m.pending == nil {
		m.pending = make(map[mapKey]mapObs)
	}
	k := mapKey{unified, pt, seq, ts}
	if prev, ok := m.pending[k]; ok && prev.flow != flow {
		if age := at.Sub(prev.at); age >= 0 && age <= copyMaxAge {
			s := RTTSample{At: Nanos(at), RTT: age, Unified: unified}
			m.samples = append(m.samples, s)
			delete(m.pending, k)
			return s, true
		}
	}
	m.pending[k] = mapObs{at: at, flow: flow}
	return RTTSample{}, false
}

// checkCopyInvariants recounts what the matcher keeps running totals of
// and checks every structural rule a ring must obey.
func checkCopyInvariants(t testing.TB, cm *CopyMatcher) {
	t.Helper()
	pending, slots := 0, 0
	for id, s := range cm.streams {
		if len(s.flows) > maxCopyFlows {
			t.Fatalf("stream %d names %d five-tuples", id, len(s.flows))
		}
		if !slices.IsSortedFunc(s.rings, func(a, b copyRing) int { return int(a.pt) - int(b.pt) }) {
			t.Fatalf("stream %d: rings out of payload-type order", id)
		}
		for _, r := range s.rings {
			n := len(r.slots)
			if n < minRing || n > maxRing || n&(n-1) != 0 {
				t.Fatalf("stream %d pt %d: ring of %d slots", id, r.pt, n)
			}
			slots += n
			for i, sl := range r.slots {
				if sl.flags&slotLive == 0 {
					continue
				}
				pending++
				if int(sl.seq)&(n-1) != i || int(sl.flow) >= len(s.flows) {
					t.Fatalf("stream %d pt %d slot %d of %d holds seq %d flow %d of %d", id, r.pt, i, n, sl.seq, sl.flow, len(s.flows))
				}
			}
		}
	}
	if pending != cm.pending || slots != cm.slots {
		t.Fatalf("matcher counts %d pending in %d slots, rings hold %d in %d", cm.pending, cm.slots, pending, slots)
	}
	if limit := cm.maxPending(); pending > limit || len(cm.streams) > limit || slots > limit*minRing {
		t.Fatalf("%d pending, %d streams, %d slots past the cap of %d", pending, len(cm.streams), slots, limit)
	}
}

type copyEvent struct {
	at      time.Time
	unified meeting.UnifiedID
	flow    layers.FiveTuple
	pt      uint8
	seq     uint16
	ts      uint32
}

// copyTrace generates what a campus tap sees of a few unified streams:
// an uplink flow and one to three downlink copies each, two payload
// types sharing the stream's sequence numbers, numbering that wraps
// 65,535 → 0, same-flow retransmissions, copies that arrive after
// copyMaxAge (a stale refresh) followed by a copy of the refreshed
// observation, and a silence longer than copyMaxAge in mid-stream. Rates
// stay under 100 packets per second and stream, so every observation
// still waiting is within maxRing sequence numbers of the newest.
func copyTrace(seed int64, packets int) []copyEvent {
	rng := rand.New(rand.NewSource(seed))
	var evs []copyEvent
	for u := 1; u <= 5; u++ {
		flows := make([]layers.FiveTuple, 2+rng.Intn(3))
		for i := range flows {
			flows[i] = copyFlow(byte(10*u+i), uint16(50000+i))
		}
		seq := uint16(65536 - 100*u - rng.Intn(400))
		at := t0.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
		pause := packets/3 + rng.Intn(packets/3)
		for n := 0; n < packets; n++ {
			at = at.Add(10*time.Millisecond + time.Duration(rng.Intn(30))*time.Millisecond)
			if n == pause {
				at = at.Add(8 * time.Second)
			}
			seq++
			e := copyEvent{at: at, unified: meeting.UnifiedID(u), flow: flows[0], pt: 98, seq: seq, ts: uint32(seq) * 2970}
			if rng.Intn(4) == 0 {
				e.pt = 110
			}
			evs = append(evs, e)
			if rng.Intn(10) == 0 { // retransmission on the uplink
				r := e
				r.at = at.Add(time.Duration(1+rng.Intn(50)) * time.Millisecond)
				evs = append(evs, r)
			}
			for _, f := range flows[1:] {
				c := e
				c.flow = f
				switch p := rng.Intn(20); {
				case p < 14: // a copy within the horizon
					c.at = at.Add(time.Duration(5+rng.Intn(200)) * time.Millisecond)
				case p == 14: // on the age bound's either side
					c.at = at.Add(copyMaxAge + time.Duration(rng.Intn(2)))
				case p == 15: // stale
					c.at = at.Add(copyMaxAge + time.Duration(1+rng.Intn(2000))*time.Millisecond)
				default: // never seen here
					continue
				}
				evs = append(evs, c)
			}
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at.Before(evs[j].at) })
	return evs
}

// TestCopyMatcherAgainstMap: inside its two horizons the ring matcher is
// the map matcher — the same answer to every observation, the same
// samples in the same order.
func TestCopyMatcherAgainstMap(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		evs := copyTrace(seed, 2500)
		cm, ref := NewCopyMatcher(), new(mapMatcher)
		for i, e := range evs {
			got, gotOK := cm.Observe(e.unified, e.flow, e.pt, e.seq, e.ts, e.at)
			want, wantOK := ref.Observe(e.unified, e.flow, e.pt, e.seq, e.ts, e.at)
			if got != want || gotOK != wantOK {
				t.Fatalf("seed %d, observation %d (%+v): ring matcher says %+v %v, map matcher %+v %v", seed, i, e, got, gotOK, want, wantOK)
			}
		}
		if !slices.Equal(all(cm.Samples), ref.samples) {
			t.Fatalf("seed %d: %d samples, the map matcher has %d", seed, cm.Samples.Len(), len(ref.samples))
		}
		if cm.Samples.Len() < len(evs)/4 {
			t.Fatalf("seed %d: only %d samples from %d observations: the trace pairs too little to prove anything", seed, cm.Samples.Len(), len(evs))
		}
		if cm.observed < 3*copyAgeEvery {
			t.Fatalf("seed %d: %d observations never reach the ageing cadence", seed, cm.observed)
		}
		checkCopyInvariants(t, cm)
	}
}

func TestCopyMatcherHorizonEdges(t *testing.T) {
	up, down := copyFlow(2, 52000), reverse(copyFlow(9, 61000))
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }

	// The sequence horizon: an observation survives the next 1,023
	// sequence numbers of its stream and payload type, not the 1,024th.
	for _, later := range []int{maxRing - 1, maxRing} {
		cm := NewCopyMatcher()
		const first = 65000 // the run wraps 65,535 → 0
		for i := 0; i <= later; i++ {
			cm.Observe(1, up, 98, uint16(first+i), uint32(i), ms(i))
		}
		_, ok := cm.Observe(1, down, 98, first, 0, ms(later+1))
		if want := later < maxRing; ok != want {
			t.Errorf("copy after %d further sequence numbers: paired = %v, want %v", later, ok, want)
		}
		checkCopyInvariants(t, cm)
	}

	// The age horizon: exactly copyMaxAge pairs, a nanosecond more does
	// not.
	for _, extra := range []time.Duration{0, 1} {
		cm := NewCopyMatcher()
		cm.Observe(1, up, 98, 7, 100, t0)
		s, ok := cm.Observe(1, down, 98, 7, 100, t0.Add(copyMaxAge+extra))
		if want := extra == 0; ok != want || (ok && s.RTT != copyMaxAge) {
			t.Errorf("copy at copyMaxAge + %d ns: paired = %v (rtt %v), want %v", extra, ok, s.RTT, want)
		}
	}

	// Growth: 1,024 observations inside copyMaxAge take the ring from 16
	// slots to 1,024 one doubling at a time, and every one of them is
	// still there for its copy.
	cm := NewCopyMatcher()
	for i := 0; i < maxRing; i++ {
		cm.Observe(1, up, 98, uint16(i), uint32(i), ms(i))
		if want := max(minRing, 1<<bitsFor(i)); len(cm.streams[1].rings[0].slots) != want {
			t.Fatalf("ring of %d slots after %d observations, want %d", len(cm.streams[1].rings[0].slots), i+1, want)
		}
	}
	if cm.Pending() != maxRing {
		t.Fatalf("pending = %d after growth, want %d", cm.Pending(), maxRing)
	}
	for i := 0; i < maxRing; i++ {
		if _, ok := cm.Observe(1, down, 98, uint16(i), uint32(i), ms(maxRing+i)); !ok {
			t.Fatalf("observation %d lost while the ring grew", i)
		}
	}
	if cm.Pending() != 0 {
		t.Fatalf("pending = %d after every copy paired", cm.Pending())
	}
	checkCopyInvariants(t, cm)

	// A ring does not grow for an observation that went stale, nor for two
	// that no ring length can part (the same sequence number, another
	// timestamp): the newer takes the slot.
	cm = NewCopyMatcher()
	cm.Observe(1, up, 98, 3, 100, t0)
	cm.Observe(1, up, 98, 3+minRing, 200, t0.Add(copyMaxAge+1))
	cm.Observe(1, up, 98, 3+minRing, 300, t0.Add(copyMaxAge+2))
	if n := len(cm.streams[1].rings[0].slots); n != minRing || cm.Pending() != 1 {
		t.Errorf("ring of %d slots holding %d, want %d holding 1", n, cm.Pending(), minRing)
	}

	// Five-tuples: a stream names 255; the 256th's observation is turned
	// away — it may still pair against what others left, as any flow but
	// the observing one may — and is not taken for one of the 255.
	cm = NewCopyMatcher()
	tuple := func(i int) layers.FiveTuple { return copyFlow(byte(i), uint16(40000+i)) }
	for i := 0; i < maxCopyFlows; i++ {
		cm.Observe(1, tuple(i), 98, uint16(i), uint32(i), ms(i))
	}
	extra := tuple(maxCopyFlows)
	if _, ok := cm.Observe(1, extra, 98, 999, 999, ms(300)); ok || cm.Pending() != maxCopyFlows || len(cm.streams[1].flows) != maxCopyFlows {
		t.Fatalf("256th five-tuple: paired %v, %d pending, %d tuples; want turned away", ok, cm.Pending(), len(cm.streams[1].flows))
	}
	if _, ok := cm.Observe(1, tuple(1), 98, 999, 999, ms(301)); ok {
		t.Error("a copy paired against the observation that was turned away")
	}
	if _, ok := cm.Observe(1, tuple(0), 98, 0, 0, ms(302)); ok {
		t.Error("the first five-tuple's retransmission paired against its own observation")
	}
	if _, ok := cm.Observe(1, extra, 98, 0, 0, ms(303)); !ok {
		t.Error("the 256th five-tuple's packet did not pair against another flow's observation")
	}
	checkCopyInvariants(t, cm)
}

// bitsFor is the number of bits needed to write n.
func bitsFor(n int) int {
	b := 0
	for ; n > 0; n >>= 1 {
		b++
	}
	return b
}

// TestCopyMatcherBackwardClockAtCap: with the matcher at its cap, a
// clock that jumps — back a day, which used to make every packet sweep
// the whole pending map some twenty times and delete nothing, forward a
// year, or to an instant Nanos has to saturate — costs at most one sweep
// per copyAgeEvery observations, and the cap holds.
func TestCopyMatcherBackwardClockAtCap(t *testing.T) {
	up, down := copyFlow(2, 52000), reverse(copyFlow(9, 61000))
	for _, tc := range []struct {
		name string
		jump time.Time
	}{
		{"back 24 h", t0.Add(-24 * time.Hour)},
		{"forward 1 year", t0.AddDate(1, 0, 0)},
		{"year 3000", time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cm := NewCopyMatcher()
			limit := cm.maxPending()
			for i := 0; i < limit; i++ {
				cm.Observe(meeting.UnifiedID(1+i/maxRing), up, 98, uint16(i%maxRing), uint32(i), t0)
			}
			if cm.Pending() != limit {
				t.Fatalf("pending = %d after filling to the cap of %d", cm.Pending(), limit)
			}
			swept, slots, start := cm.swept, cm.slots, time.Now()
			const packets = 2000
			for i := 0; i < packets; i++ {
				at := tc.jump.Add(time.Duration(i) * time.Millisecond)
				f := up
				if i%2 == 1 {
					f = down
				}
				cm.Observe(meeting.UnifiedID(1+i%100), f, 98, uint16(2000+i/2), uint32(i/2), at)
				if cm.Pending() > limit {
					t.Fatalf("pending = %d past the cap of %d after %d packets", cm.Pending(), limit, i+1)
				}
			}
			// One sweep visits a slot once; rings made since add their own.
			if visited, bound := cm.swept-swept, uint64(slots+packets*maxRing); visited > bound {
				t.Errorf("ageing visited %d slots for %d packets, more than one sweep of %d", visited, packets, bound)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("%d packets took %v", packets, d)
			}
			for _, s := range all(cm.Samples) {
				if s.RTT < 0 || s.RTT > copyMaxAge {
					t.Fatalf("sample with rtt %v", s.RTT)
				}
			}
			checkCopyInvariants(t, cm)
		})
	}
}

// TestCopyMatcherStreamTableBounded: a flood of fresh unified ids — one
// per packet, each a stream never seen again — must not grow the
// matcher's stream table past its cap.
func TestCopyMatcherStreamTableBounded(t *testing.T) {
	cm := NewCopyMatcher()
	cm.MaxPending = 32
	for i := 0; i < 20000; i++ {
		ft := copyFlow(byte(i%8), uint16(30000+i%8))
		at := t0.Add(time.Duration(i) * time.Millisecond)
		cm.Observe(meeting.UnifiedID(i+1), ft, 98, uint16(i), uint32(i), at)
		if len(cm.streams) > 32 || cm.Pending() > 32 {
			t.Fatalf("after %d packets: %d streams, %d pending, cap 32", i+1, len(cm.streams), cm.Pending())
		}
	}
	checkCopyInvariants(t, cm)
}

// FuzzCopyMatcher drives a small matcher — cap 48, so the cap, its
// sweeps and the slot budget are all in play — with arbitrary
// observations and clocks. Whatever arrives, the structure stays sound,
// a full record restores to the same record, and a replica fed the
// deltas stays byte-identical to the live matcher.
func FuzzCopyMatcher(f *testing.F) {
	f.Add([]byte{0x00, 1, 0x10, 1, 0x01, 16, 0x11, 16, 0xff, 0, 0x05, 200, 0x80, 3, 0x00, 1})
	f.Add(bytes.Repeat([]byte{0x02, 7, 0x12, 7, 0x42, 9, 0xc0, 250}, 40))
	f.Fuzz(func(t *testing.T, in []byte) {
		live, replica := NewCopyMatcher(), NewCopyMatcher()
		live.MaxPending, replica.MaxPending = 48, 48
		live.MarkCheckpointed()
		replica.MarkCheckpointed()
		at := t0
		var seq [4]uint16
		for i := 0; i+1 < len(in); i += 2 {
			op, arg := in[i], in[i+1]
			u := int(op & 3)
			switch {
			case op == 0xff: // a checkpoint: the replica catches up
				rec := bytes.Clone(matcherRecord(live, false))
				live.MarkCheckpointed()
				if err := applyMatcher(replica, rec); err != nil {
					t.Fatalf("delta onto its base: %v", err)
				}
				replica.MarkCheckpointed()
				if !bytes.Equal(matcherRecord(live, true), matcherRecord(replica, true)) {
					t.Fatal("replica diverged from the live matcher")
				}
				checkCopyInvariants(t, replica)
				continue
			case op&0x80 != 0: // the clock moves: forward, far forward, or back
				step := time.Duration(arg) * 40 * time.Millisecond
				if op&0x40 != 0 {
					step = -step
				}
				at = at.Add(step)
				continue
			case op&0x20 != 0: // the stream's numbering jumps
				seq[u] += uint16(arg) * 16
			default:
				seq[u] += uint16(arg & 3)
			}
			at = at.Add(time.Millisecond)
			s, ok := live.Observe(meeting.UnifiedID(1+u), copyFlow(op>>2&3, 50000), 98+op>>4&1, seq[u], uint32(seq[u]), at)
			if ok && (s.RTT < 0 || s.RTT > copyMaxAge) {
				t.Fatalf("sample with rtt %v", s.RTT)
			}
		}
		checkCopyInvariants(t, live)
		full := bytes.Clone(matcherRecord(live, true))
		fresh := NewCopyMatcher()
		if err := applyMatcher(fresh, full); err != nil {
			t.Fatalf("full record onto a fresh matcher: %v", err)
		}
		if !bytes.Equal(matcherRecord(fresh, true), full) {
			t.Fatal("full → fresh matcher → full differs")
		}
	})
}

// BenchmarkCopyMatcherObserve is the matcher's share of a campus tap: 200
// unified streams on two flows and two payload types each, one packet in
// three the downlink copy of an uplink packet seen 20 packets earlier.
func BenchmarkCopyMatcherObserve(b *testing.B) {
	const streams = 200
	var up, down [streams]layers.FiveTuple
	for u := range up {
		up[u] = copyFlow(byte(u), uint16(40000+u))
		down[u] = reverse(up[u])
	}
	cm := NewCopyMatcher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, f := i/3*2+i%3, &up // the n-th uplink packet, or the copy of one
		if i%3 == 2 {
			n, f = n-20, &down
		}
		if n < 0 {
			continue
		}
		u, seq := n%streams, uint16(n/streams)
		cm.Observe(meeting.UnifiedID(1+u), f[u], 98+uint8(seq&1)*12, seq, uint32(seq)*2970, t0.Add(time.Duration(i)*100*time.Microsecond))
	}
	b.StopTimer()
	if b.N > 1000 && cm.Samples.Len() < b.N/4 {
		b.Fatalf("%d samples from %d observations", cm.Samples.Len(), b.N)
	}
}
