package metrics

import (
	"time"

	"zoomlens/internal/zoom"
)

// TalkTracker quantifies when and how much a participant actually talks,
// using the audio substream split the paper discovered (§4.2.3): PT 112
// packets flow while the participant speaks (or emits significant
// sound), fixed 40-byte PT 99 packets during silence, and PT 113 when
// the mode cannot be determined (mobile clients).
//
// A capture clock may step back. The open segment's end (last) and the
// latest time seen (lastSeen) never move backward and the earliest
// (firstSeen) never forward, so no segment ends before it starts and the
// observed span is the latest time seen less the earliest.
type TalkTracker struct {
	segments []TalkSegment
	open     bool
	start    time.Time
	last     time.Time

	speakingPkts uint64
	silentPkts   uint64
	unknownPkts  uint64
	firstSeen    time.Time
	lastSeen     time.Time
}

// TalkSegment is one continuous speaking interval.
type TalkSegment struct {
	Start time.Time
	End   time.Time
}

// Duration returns the segment length.
func (s TalkSegment) Duration() time.Duration { return s.End.Sub(s.Start) }

// talkMergeGap joins speaking segments separated by less than this.
const talkMergeGap = 500 * time.Millisecond

// NewTalkTracker returns an empty tracker.
func NewTalkTracker() *TalkTracker { return new(TalkTracker) }

// Observe feeds one audio packet of the stream.
func (t *TalkTracker) Observe(at time.Time, pt uint8) {
	if t.firstSeen.IsZero() || at.Before(t.firstSeen) {
		t.firstSeen = at
	}
	if at.After(t.lastSeen) {
		t.lastSeen = at
	}
	switch zoom.ClassifySubstream(zoom.TypeAudio, pt) {
	case zoom.SubAudioSpeaking:
		t.speakingPkts++
		if t.open && at.Sub(t.last) <= talkMergeGap {
			if at.After(t.last) {
				t.last = at
			}
			return
		}
		if t.open {
			t.segments = append(t.segments, TalkSegment{Start: t.start, End: t.last})
		}
		t.open = true
		t.start, t.last = at, at
	case zoom.SubAudioSilent:
		t.silentPkts++
		t.closeIfStale(at)
	case zoom.SubAudioMobile:
		t.unknownPkts++
	default:
		// FEC and unknown types don't affect talk state.
	}
}

func (t *TalkTracker) closeIfStale(at time.Time) {
	if t.open && at.Sub(t.last) > talkMergeGap {
		t.segments = append(t.segments, TalkSegment{Start: t.start, End: t.last})
		t.open = false
	}
}

// Finish closes any open segment.
func (t *TalkTracker) Finish() {
	if t.open {
		t.segments = append(t.segments, TalkSegment{Start: t.start, End: t.last})
		t.open = false
	}
}

// Segments returns the completed speaking intervals.
func (t *TalkTracker) Segments() []TalkSegment { return t.segments }

// TalkStats summarizes the stream.
type TalkStats struct {
	// Speaking is the total speaking time.
	Speaking time.Duration
	// Observed is the stream's observed span.
	Observed time.Duration
	// SpeakingFraction = Speaking / Observed.
	SpeakingFraction float64
	// Segments is the number of talk spurts.
	Segments int
	// ModeKnown is false when the stream used PT 113 exclusively: the
	// talk state cannot be determined (§4.2.3: "When type 113 is used,
	// we cannot tell if the participant talks or not").
	ModeKnown bool
}

// Stats returns the summary (call Finish first).
func (t *TalkTracker) Stats() TalkStats {
	var speaking time.Duration
	for _, s := range t.segments {
		speaking += s.Duration()
	}
	st := TalkStats{
		Speaking:  speaking,
		Segments:  len(t.segments),
		ModeKnown: t.speakingPkts+t.silentPkts > 0,
	}
	if !t.firstSeen.IsZero() {
		st.Observed = t.lastSeen.Sub(t.firstSeen)
	}
	if st.Observed > 0 {
		st.SpeakingFraction = float64(speaking) / float64(st.Observed)
	}
	return st
}
