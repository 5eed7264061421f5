package metrics

import (
	"net/netip"
	"testing"
	"time"

	"zoomlens/internal/layers"
)

// TestEncoderFrameRateReorderingKeepsBaseline is the regression test for
// the §5.2 method-2 fix: a reordered or duplicated frame timestamp must
// not advance the baseline, or the next in-order frame measures an
// inflated ΔRTP (and a deflated frame rate).
func TestEncoderFrameRateReorderingKeepsBaseline(t *testing.T) {
	e := &EncoderFrameRate{clockRate: 90000}
	e.Observe(3000)
	if fps, _, ok := e.Observe(6000); !ok || fps != 30 {
		t.Fatalf("in-order frame: fps=%v ok=%v, want 30", fps, ok)
	}
	// A late duplicate of the first frame arrives out of order.
	if _, _, ok := e.Observe(3000); ok {
		t.Fatal("reordered timestamp produced a rate")
	}
	// The next in-order frame is 3000 ticks after the *last in-order*
	// frame (6000): the rate must be 30 fps. With the regressed baseline
	// it would measure ΔRTP=6000 → 15 fps.
	fps, pt, ok := e.Observe(9000)
	if !ok {
		t.Fatal("in-order frame after reordering not measured")
	}
	if fps != 30 {
		t.Fatalf("fps after reordering = %v, want 30 (baseline regressed)", fps)
	}
	if pt != time.Second/30 {
		t.Fatalf("packetization after reordering = %v, want %v", pt, time.Second/30)
	}

	// An exact duplicate of the newest frame must not measure either.
	if _, _, ok := e.Observe(9000); ok {
		t.Fatal("duplicate timestamp produced a rate")
	}
	if fps, _, ok := e.Observe(12000); !ok || fps != 30 {
		t.Fatalf("fps after duplicate = %v ok=%v, want 30", fps, ok)
	}
}

// TestCopyMatcherStaleRefreshTakesObservingFlow is the regression test
// for the §5.3 fix: when a copy arrives after MaxAge, the refreshed
// pending entry must record the observing packet's own flow. The buggy
// refresh kept the original flow with the new timestamp, so (a) a later
// packet on the *refreshing* flow paired against its own observation as
// a bogus RTT sample, and (b) a genuine copy on the original flow was
// rejected as same-flow.
func TestCopyMatcherStaleRefreshTakesObservingFlow(t *testing.T) {
	flowA := layers.FiveTuple{Src: netip.MustParseAddr("10.8.1.2"), Dst: netip.MustParseAddr("52.81.3.4"), SrcPort: 52000, DstPort: 8801, Proto: layers.ProtoUDP}
	flowB := layers.FiveTuple{Src: netip.MustParseAddr("52.81.3.4"), Dst: netip.MustParseAddr("10.8.7.7"), SrcPort: 8801, DstPort: 61000, Proto: layers.ProtoUDP}

	cm := NewCopyMatcher()
	cm.Observe(1, flowA, 98, 7, 100, t0)
	// The copy on flow B arrives after MaxAge: no sample, entry refreshed.
	stale := t0.Add(copyMaxAge + time.Second)
	if _, ok := cm.Observe(1, flowB, 98, 7, 100, stale); ok {
		t.Fatal("stale copy produced a sample")
	}
	// Another packet on flow B (a retransmission of the refreshed
	// observation): with the old-flow bug this paired B against B.
	if s, ok := cm.Observe(1, flowB, 98, 7, 100, stale.Add(500*time.Millisecond)); ok {
		t.Fatalf("same-flow packet paired against its own refresh: %+v", s)
	}
	// A genuine copy back on flow A pairs against the refreshed flow-B
	// entry. The refresh above replaced the entry's timestamp too, so the
	// RTT is measured from the most recent same-flow send.
	s, ok := cm.Observe(1, flowA, 98, 7, 100, stale.Add(1500*time.Millisecond))
	if !ok {
		t.Fatal("cross-flow copy after refresh did not pair")
	}
	if s.RTT != time.Second {
		t.Fatalf("rtt = %v, want 1s (measured from the refreshed observation)", s.RTT)
	}
}

// TestCopyMatcherMaxPending checks that the configured cap, not the
// default, bounds the waiting observations; that a matcher at the cap
// makes room by emptying stale slots; that one full of fresh
// observations turns new ones away instead; and that occupancy is
// observable.
func TestCopyMatcherMaxPending(t *testing.T) {
	flowA := layers.FiveTuple{Src: netip.MustParseAddr("10.8.1.2"), Dst: netip.MustParseAddr("52.81.3.4"), SrcPort: 52000, DstPort: 8801, Proto: layers.ProtoUDP}
	flowB := reverse(flowA)
	cm := NewCopyMatcher()
	cm.MaxPending = 64

	for i := 0; i < 64; i++ {
		cm.Observe(1, flowA, 98, uint16(i), uint32(i), t0)
	}
	if cm.Pending() != 64 {
		t.Fatalf("pending = %d, want 64", cm.Pending())
	}
	// Another stream's first observation finds the matcher at the cap:
	// the 64 stale ones make way.
	late := t0.Add(copyMaxAge + time.Second)
	cm.Observe(2, flowA, 98, 1000, 1000, late)
	if got := cm.Pending(); got != 1 {
		t.Fatalf("pending after the sweep = %d, want 1 (stale observations collected at the cap)", got)
	}
	if _, ok := cm.Observe(2, flowB, 98, 1000, 1000, late.Add(time.Millisecond)); !ok {
		t.Fatal("the observation admitted at the cap did not pair with its copy")
	}

	// A burst younger than copyMaxAge: the cap holds, what was admitted
	// keeps its full horizon, and what came after is turned away.
	cm2 := NewCopyMatcher()
	cm2.MaxPending = 16
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * 10 * time.Millisecond) }
	for i := 0; i < 200; i++ {
		cm2.Observe(1, flowA, 98, uint16(i), uint32(i), at(i))
		if got := cm2.Pending(); got > 16 {
			t.Fatalf("pending = %d after %d fresh observations, cap 16", got, i+1)
		}
	}
	if _, ok := cm2.Observe(1, flowB, 98, 3, 3, at(200)); !ok {
		t.Error("an observation admitted below the cap lost its copy")
	}
	if _, ok := cm2.Observe(1, flowB, 98, 150, 150, at(200)); ok {
		t.Error("an observation turned away at the cap produced a sample")
	}
}
