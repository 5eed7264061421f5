package core

import (
	"net/netip"
	"testing"
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/sim"
)

func TestMeetingReportHealthy(t *testing.T) {
	a, _ := runMeetingCapture(t, 20, false)
	reps := a.MeetingReports()
	if len(reps) != 1 {
		t.Fatalf("reports = %d", len(reps))
	}
	r := reps[0]
	if len(r.Participants) != 2 {
		t.Fatalf("participants = %d", len(r.Participants))
	}
	if r.MeetingWideDegradation {
		t.Error("healthy meeting flagged degraded")
	}
	for _, p := range r.Participants {
		if p.Degraded {
			t.Errorf("participant %v degraded on a clean network", p.Client)
		}
		if p.VideoFPSMean < 20 {
			t.Errorf("participant %v fps = %v", p.Client, p.VideoFPSMean)
		}
		if p.Streams == 0 {
			t.Errorf("participant %v has no streams", p.Client)
		}
	}
	if r.MeanRTT <= 0 {
		t.Error("no RTT estimate for the meeting")
	}
	// The status line's counters are the summary's, less the one figure
	// that costs a meeting roll-up.
	sum := a.Summary()
	if sum.Meetings != 1 {
		t.Errorf("summary counts %d meetings, want 1", sum.Meetings)
	}
	sum.Meetings = 0
	if got := a.Counters(); got != sum {
		t.Errorf("Counters() = %+v, want Summary() without its meeting count: %+v", got, sum)
	}
}

// TestMeetingReportSingleAffectedParticipant gives one participant a
// bad last mile: only that participant should be flagged, and the
// meeting must not be marked as suffering overall — the exact
// distinction §4.3 sets out to enable.
func TestMeetingReportSingleAffectedParticipant(t *testing.T) {
	opts := sim.DefaultOptions()
	w := sim.NewWorld(opts)
	a := analyzerFor(opts)
	w.Monitor = a.Packet
	m := w.NewMeeting()
	good := w.NewClient("good", true)
	bad := w.NewClient("bad", true)
	third := w.NewClient("third", true)
	m.Join(good, sim.DefaultMediaSet())
	m.Join(bad, sim.DefaultMediaSet())
	m.Join(third, sim.DefaultMediaSet())

	// Degrade only bad's access links, persistently.
	bad.DegradeAccess(120*time.Millisecond, 0.05)
	w.Run(opts.Start.Add(30 * time.Second))
	a.Finish()

	reps := a.MeetingReports()
	if len(reps) != 1 {
		t.Fatalf("reports = %d", len(reps))
	}
	r := reps[0]
	if len(r.Participants) != 3 {
		t.Fatalf("participants = %d", len(r.Participants))
	}
	var degraded, healthy int
	for _, p := range r.Participants {
		if p.Degraded {
			degraded++
		} else {
			healthy++
		}
	}
	if degraded == 0 {
		t.Error("impaired participant not flagged")
	}
	if degraded > 1 {
		t.Errorf("flagged %d participants, only one path is impaired", degraded)
	}
	if r.MeetingWideDegradation {
		t.Error("meeting-wide flag set when only one path is impaired")
	}
}

// TestArchiveKeepsSegmentBounds: archiving a segment changes neither of
// its bounds. Every stream is evicted, the same frames come again two
// hours later and are evicted too: each resumed segment's archived
// FirstSeen and LastSeen are what it showed live. An archive entry once
// carried no start, which Streams took from the Dedup record or from the
// second the first rate bin opened in, rounding a resumed segment's down
// to the whole second.
func TestArchiveKeepsSegmentBounds(t *testing.T) {
	tr, opts := seededTrace(t, 6)
	a := NewAnalyzer(Config{ZoomNetworks: []netip.Prefix{opts.ZoomNet}, CampusNetworks: []netip.Prefix{opts.CampusNet}})
	const later = 2 * time.Hour
	end := tr.at[len(tr.at)-1]
	for i := range tr.frames {
		a.Packet(tr.at[i], tr.frames[i])
	}
	a.EvictIdle(end.Add(time.Hour))
	for i := range tr.frames {
		a.Packet(tr.at[i].Add(later), tr.frames[i])
	}
	type bounds struct{ first, last time.Time }
	live := make(map[flow.MediaStreamID]bounds)
	for _, seg := range a.Streams() {
		if !seg.Archived {
			live[seg.ID] = bounds{seg.FirstSeen, seg.LastSeen}
		}
	}
	a.EvictIdle(end.Add(later + time.Hour))
	resumed := 0
	for _, seg := range a.Streams() {
		if !seg.FirstSeen.After(end) {
			continue // the first segment
		}
		resumed++
		if got, want := (bounds{seg.FirstSeen, seg.LastSeen}), live[seg.ID]; !seg.Archived || got != want {
			t.Errorf("stream %v on %v: archived (%v) with bounds %v – %v, live %v – %v",
				seg.ID.Key, seg.ID.Flow, seg.Archived, got.first, got.last, want.first, want.last)
		}
	}
	if resumed == 0 || resumed != len(live) {
		t.Fatalf("%d resumed segments archived, %d were live", resumed, len(live))
	}
}
