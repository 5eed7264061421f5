package metrics

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/meeting"
	"zoomlens/internal/statecodec"
)

func copyFlow(host byte, port uint16) layers.FiveTuple {
	return layers.FiveTuple{
		Src:     netip.AddrFrom4([4]byte{10, 8, 1, host}),
		Dst:     netip.MustParseAddr("52.81.3.4"),
		SrcPort: port,
		DstPort: 8801,
		Proto:   layers.ProtoUDP,
	}
}

// reverse returns the tuple of the opposite direction.
func reverse(ft layers.FiveTuple) layers.FiveTuple {
	return layers.FiveTuple{Src: ft.Dst, Dst: ft.Src, SrcPort: ft.DstPort, DstPort: ft.SrcPort, Proto: ft.Proto}
}

// matcherRecord is cm's full or delta record; applyMatcher decodes one
// onto cm.
func matcherRecord(cm *CopyMatcher, full bool) []byte {
	var w statecodec.Writer
	cm.Code(statecodec.NewEncoder(&w, full))
	return w.Bytes()
}

func applyMatcher(cm *CopyMatcher, rec []byte) error {
	c := statecodec.NewDecoder(statecodec.NewReader(rec))
	cm.Code(c)
	return c.Err()
}

func matcherState(t *testing.T, cm *CopyMatcher) []byte {
	t.Helper()
	return matcherRecord(cm, true)
}

// Drive the matcher through samples, refreshes, and deletions; full
// checkpoint into a replica; mutate both further via a delta; the full
// encodings (deterministic, complete) must stay byte-identical.
func TestCopyMatcherDeltaRoundTrip(t *testing.T) {
	live := NewCopyMatcher()
	up := copyFlow(2, 52000)
	down := reverse(copyFlow(9, 61000))
	for i := 0; i < 50; i++ {
		at := t0.Add(time.Duration(i) * 33 * time.Millisecond)
		live.Observe(meeting.UnifiedID(1+i%3), up, 98, uint16(i), uint32(i*2970), at)
		if i%2 == 0 { // match half of them into Samples
			live.Observe(meeting.UnifiedID(1+i%3), down, 98, uint16(i), uint32(i*2970), at.Add(7*time.Millisecond))
		}
	}

	full := matcherRecord(live, true)
	live.MarkCheckpointed()
	replica := NewCopyMatcher()
	if err := applyMatcher(replica, full); err != nil {
		t.Fatalf("restore: %v", err)
	}
	replica.MarkCheckpointed()

	// Churn: new observations, matches (deletions), and a same-flow
	// refresh of a surviving pending entry.
	for i := 50; i < 80; i++ {
		at := t0.Add(time.Duration(i) * 33 * time.Millisecond)
		live.Observe(meeting.UnifiedID(1+i%3), up, 98, uint16(i), uint32(i*2970), at)
		if i%3 == 0 {
			live.Observe(meeting.UnifiedID(1+i%3), down, 98, uint16(i), uint32(i*2970), at.Add(9*time.Millisecond))
		}
	}
	live.Observe(meeting.UnifiedID(2), up, 98, 49, uint32(49*2970), t0.Add(3*time.Second))

	delta := matcherRecord(live, false)
	live.MarkCheckpointed()
	if err := applyMatcher(replica, delta); err != nil {
		t.Fatalf("apply delta: %v", err)
	}
	replica.MarkCheckpointed()

	if !bytes.Equal(matcherState(t, live), matcherState(t, replica)) {
		t.Fatal("replica state diverged from live matcher after delta apply")
	}

	// A second delta on top must also converge (chain discipline).
	live.Observe(meeting.UnifiedID(5), up, 110, 9000, 1, t0.Add(4*time.Second))
	if err := applyMatcher(replica, matcherRecord(live, false)); err != nil {
		t.Fatalf("apply second delta: %v", err)
	}
	if !bytes.Equal(matcherState(t, live), matcherState(t, replica)) {
		t.Fatal("replica diverged after second delta")
	}
}

// What ageing does to the live matcher must reach the replica: a slot
// sweep at the cap empties stale slots of a stream that is still active,
// and the cadence sweep drops a stream of the base whole (a tombstone);
// after the delta the replica must agree exactly.
func TestCopyMatcherDeltaCarriesGCEvictions(t *testing.T) {
	live := NewCopyMatcher()
	live.MaxPending = 64
	up := copyFlow(2, 52000)

	for i := 0; i < 48; i++ {
		live.Observe(1, up, 98, uint16(i), uint32(i), t0)
	}
	for i := 0; i < 16; i++ {
		live.Observe(2, up, 98, uint16(i), uint32(i), t0)
	}
	full := matcherRecord(live, true)
	live.MarkCheckpointed()
	replica := NewCopyMatcher()
	replica.MaxPending = 64
	if err := applyMatcher(replica, full); err != nil {
		t.Fatalf("restore: %v", err)
	}
	replica.MarkCheckpointed()

	// Stream 1 carries on a minute later: at the cap, its first new slot
	// pays for a sweep that empties the 48 stale ones. Stream 2 stays
	// silent until the cadence sweep drops it.
	late := t0.Add(time.Minute)
	for i := 48; i < 48+copyAgeEvery; i++ {
		live.Observe(1, up, 98, uint16(i), uint32(i), late.Add(time.Duration(i)*time.Millisecond))
	}
	if got := live.Pending(); got > 64 {
		t.Fatalf("pending = %d past the cap of 64", got)
	}
	if _, dead := live.log.Backlog(); len(live.streams) != 1 || dead != 1 {
		t.Fatalf("%d streams, %d tombstones after the idle sweep, want 1 and 1", len(live.streams), dead)
	}

	if err := applyMatcher(replica, matcherRecord(live, false)); err != nil {
		t.Fatalf("apply delta: %v", err)
	}
	if !bytes.Equal(matcherState(t, live), matcherState(t, replica)) {
		t.Fatal("replica diverged after a delta carrying aged-out slots and a dropped stream")
	}
	if replica.Pending() != live.Pending() || replica.slots != live.slots {
		t.Fatalf("replica counts %d pending in %d slots, live %d in %d", replica.Pending(), replica.slots, live.Pending(), live.slots)
	}
}

// TestDeltaBacklogBoundedByTable churns the matcher's streams through six
// generations between two checkpoints: each round brings a generation of
// 64 streams in, 64 observations each, and the ageing sweep that runs at
// the round's last observation drops the generation before, idle 10 s.
// After every round the change log may list no more than the live
// streams and hold no more tombstones than the base's, and at the end the
// tombstones are exactly the base's streams: the ones born and dropped in
// between leave none. The full record from the first checkpoint plus the
// delta from the second, applied to a replica, must re-encode to the live
// matcher's own full record.
func TestDeltaBacklogBoundedByTable(t *testing.T) {
	const n, rounds = 64, 5
	live := NewCopyMatcher()
	round := func(r int) {
		at := t0.Add(time.Duration(r) * 10 * time.Second)
		for seq := range n {
			for i := range n {
				live.Observe(meeting.UnifiedID(1+r*n+i), copyFlow(byte(i), 52000), 98, uint16(seq), uint32(seq), at)
			}
		}
	}
	round(0)
	full := bytes.Clone(matcherRecord(live, true))
	live.MarkCheckpointed()
	for r := 1; r <= rounds; r++ {
		round(r)
		if changed, dead := live.log.Backlog(); changed > len(live.streams) || dead > n {
			t.Fatalf("round %d: %d listed of %d live streams, %d tombstones of %d base streams", r, changed, len(live.streams), dead, n)
		}
	}
	if _, dead := live.log.Backlog(); dead != n {
		t.Errorf("%d tombstones after the base's %d streams were all dropped: want exactly those", dead, n)
	}
	replica := NewCopyMatcher()
	if err := applyMatcher(replica, full); err != nil {
		t.Fatalf("full record onto a fresh matcher: %v", err)
	}
	replica.MarkCheckpointed()
	if err := applyMatcher(replica, matcherRecord(live, false)); err != nil {
		t.Fatalf("delta onto its base: %v", err)
	}
	if got, want := matcherState(t, replica), matcherState(t, live); !bytes.Equal(got, want) {
		t.Errorf("full + delta onto a replica re-encodes to %d bytes, the live matcher's full record is %d", len(got), len(want))
	}
}

func TestCopyMatcherDeltaBaseMismatch(t *testing.T) {
	live := NewCopyMatcher()
	up := copyFlow(2, 52000)
	down := reverse(copyFlow(9, 61000))
	live.MarkCheckpointed()
	live.Observe(1, up, 98, 7, 100, t0)
	live.Observe(1, down, 98, 7, 100, t0.Add(time.Millisecond))
	delta := matcherRecord(live, false)

	// A matcher with a different sample count is the wrong base.
	other := NewCopyMatcher()
	other.Samples.Append(RTTSample{At: Nanos(t0), RTT: time.Millisecond, Unified: 9})
	if err := applyMatcher(other, delta); err == nil {
		t.Fatal("delta applied onto wrong sample baseline")
	}
}

// TestCopyMatcherCodeRejectsCorrupt writes matcher records by hand, in
// the layout Code walks, and checks that the well-formed one restores
// (and re-encodes to itself) while each malformed one is refused.
func TestCopyMatcherCodeRejectsCorrupt(t *testing.T) {
	type slot struct {
		pos  int
		seq  uint16
		flow uint8
	}
	type ring struct {
		pt    uint8
		n     int
		slots []slot
	}
	type stream struct {
		id    int
		rings []ring
	}
	record := func(streams ...stream) []byte {
		var w statecodec.Writer
		w.Int(0) // the Samples baseline, and no samples past it
		w.Int(0)
		w.U64(0) // observed, nextSweep
		w.U64(0)
		w.Int(0) // no tombstones
		w.Int(len(streams))
		for _, s := range streams {
			w.Int(s.id)
			w.I64(Nanos(t0))
			w.Int(1) // on one five-tuple
			ft := copyFlow(2, 52000)
			ft.Code(statecodec.NewEncoder(&w, true))
			w.Int(len(s.rings))
			for _, r := range s.rings {
				w.U64(uint64(r.pt))
				w.Int(r.n)
				w.Int(len(r.slots))
				for _, sl := range r.slots {
					w.Int(sl.pos)
					w.Bool(true)
					w.U16(sl.seq)
					w.U32(7)
					w.I64(Nanos(t0))
					w.U8(sl.flow)
				}
			}
		}
		return bytes.Clone(w.Bytes())
	}
	one := func(r ring) []byte { return record(stream{1, []ring{r}}) }

	good := record(stream{1, []ring{{98, 16, []slot{{3, 3, 0}, {5, 21, 0}}}, {110, 32, []slot{{31, 63, 0}}}}}, stream{2, []ring{{98, 1024, nil}}})
	cm := NewCopyMatcher()
	if err := applyMatcher(cm, good); err != nil {
		t.Fatalf("well-formed record: %v", err)
	}
	if cm.Pending() != 3 || cm.slots != 16+32+1024 || !bytes.Equal(matcherRecord(cm, true), good) {
		t.Fatalf("well-formed record restored to %d pending in %d slots, re-encoding equal: %v", cm.Pending(), cm.slots, bytes.Equal(matcherRecord(cm, true), good))
	}

	for name, rec := range map[string][]byte{
		"ring length not a power of two": one(ring{98, 24, nil}),
		"ring longer than 1,024":         one(ring{98, 2048, nil}),
		"ring shorter than 16":           one(ring{98, 8, nil}),
		"sequence number off its slot":   one(ring{98, 16, []slot{{6, 5, 0}}}),
		"flow ordinal past the tuples":   one(ring{98, 16, []slot{{5, 5, 1}}}),
		"slot past the ring":             one(ring{98, 16, []slot{{16, 16, 0}}}),
		"slots out of order":             one(ring{98, 16, []slot{{5, 5, 0}, {3, 3, 0}}}),
		"slot twice":                     one(ring{98, 16, []slot{{5, 5, 0}, {5, 5, 0}}}),
		"more slots than the ring has":   one(ring{98, 16, make([]slot, 17)}),
		"payload type twice":             record(stream{1, []ring{{98, 16, nil}, {98, 16, nil}}}),
		"payload types out of order":     record(stream{1, []ring{{110, 16, nil}, {98, 16, nil}}}),
		"stream id twice":                record(stream{1, nil}, stream{1, nil}),
	} {
		if err := applyMatcher(NewCopyMatcher(), rec); !errors.Is(err, statecodec.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
