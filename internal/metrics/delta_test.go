package metrics

import (
	"bytes"
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
	down := copyFlow(9, 61000).Reverse()
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

	if live.DeltaOverflow() {
		t.Fatal("unexpected delta overflow")
	}
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

// GC evictions must reach the replica as tombstones: over-cap churn on
// the live matcher deletes old pending entries, and after the delta the
// replica must agree exactly.
func TestCopyMatcherDeltaCarriesGCEvictions(t *testing.T) {
	live := NewCopyMatcher()
	live.MaxPending = 64
	up := copyFlow(2, 52000)

	for i := 0; i < 64; i++ {
		live.Observe(1, up, 98, uint16(i), uint32(i), t0)
	}
	full := matcherRecord(live, true)
	live.MarkCheckpointed()
	replica := NewCopyMatcher()
	if err := applyMatcher(replica, full); err != nil {
		t.Fatalf("restore: %v", err)
	}
	replica.MarkCheckpointed()

	// Push past the cap far enough in the future that the age-based GC
	// sweeps the baseline entries.
	for i := 64; i < 128; i++ {
		live.Observe(1, up, 98, uint16(i), uint32(i), t0.Add(time.Minute))
	}
	if live.Pending() >= 128 {
		t.Fatalf("gc did not run: %d pending", live.Pending())
	}

	if err := applyMatcher(replica, matcherRecord(live, false)); err != nil {
		t.Fatalf("apply delta: %v", err)
	}
	if !bytes.Equal(matcherState(t, live), matcherState(t, replica)) {
		t.Fatal("replica diverged after gc-heavy delta")
	}
}

func TestCopyMatcherDeltaBaseMismatch(t *testing.T) {
	live := NewCopyMatcher()
	up := copyFlow(2, 52000)
	down := copyFlow(9, 61000).Reverse()
	live.MarkCheckpointed()
	live.Observe(1, up, 98, 7, 100, t0)
	live.Observe(1, down, 98, 7, 100, t0.Add(time.Millisecond))
	delta := matcherRecord(live, false)

	// A matcher with a different sample count is the wrong base.
	other := NewCopyMatcher()
	other.Samples = append(other.Samples, RTTSample{Time: t0, RTT: time.Millisecond, Unified: 9})
	if err := applyMatcher(other, delta); err == nil {
		t.Fatal("delta applied onto wrong sample baseline")
	}
}
