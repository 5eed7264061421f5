package metrics

import (
	"slices"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/meeting"
	"zoomlens/internal/statecodec"
)

// RTTSample is one latency measurement: 24 bytes and no pointer, like
// Sample.
type RTTSample struct {
	At  int64 // capture time of the later copy in Unix nanoseconds (see Nanos)
	RTT time.Duration
	// Unified is the stream whose copies produced the sample.
	Unified meeting.UnifiedID
}

// Time returns the capture time, in UTC as the capture readers stamp it.
func (s RTTSample) Time() time.Time { return time.Unix(0, s.At).UTC() }

// CopyMatcher implements §5.3 method 1: when the monitor sees both the
// uplink copy of a stream (client → SFU) and a downlink copy of the same
// stream (SFU → another on-campus client), packets with matching RTP
// sequence numbers measure the round trip from the monitor to the SFU
// and back (Figure 11, solid lines).
//
// Matching is keyed on (unified stream, payload type, sequence number,
// RTP timestamp); all four features of the duplicate-detection heuristic
// (time, SSRC, seq, timestamp) participate because unified IDs already
// encode SSRC/timestamp proximity and the age limit bounds time.
//
// An observation waits for its copy in a ring of its unified stream and
// payload type, at position seq mod the ring's length, so the packet
// path hashes one 8-byte id and never inserts into or deletes from a
// map. It waits for copyMaxAge, or until the stream has moved maxRing
// sequence numbers past it, whichever ends first.
type CopyMatcher struct {
	// MaxPending caps the observations waiting for a copy, bounding
	// matcher state on long captures; it also caps the streams the
	// matcher follows, and ring memory at minRing slots per permitted
	// observation. Zero selects DefaultMaxPending. It is configuration:
	// whoever builds the matcher sets it (core derives it from
	// Config.MaxStreams), and no checkpoint record carries it.
	MaxPending int
	// Samples receives each RTT measurement.
	Samples []RTTSample

	// streams is keyed by unified id — a map, not a slice indexed by it:
	// ids grow with every stream of the report window, while the matcher
	// holds only the streams seen in the last copyMaxAge.
	streams map[meeting.UnifiedID]*copyStream
	// pending counts the slots that hold an observation, slots the ones
	// allocated, over every ring.
	pending, slots int
	// observed counts observations, the clock ageing runs on; from
	// nextSweep on, a matcher at its cap may pay for another slot sweep.
	observed, nextSweep uint64
	// swept counts the slots ageing has visited: what tests bound the work
	// of a hostile clock by.
	swept uint64

	// Delta-checkpoint tracking (see state.go). dirtyBit is slotDirty once
	// the first checkpoint armed the tracking and 0 before it, so a run
	// that never checkpoints sets no dirty state at all. log holds the
	// streams observed since the last checkpoint and the ones of that
	// checkpoint dropped since; ckSamples is the Samples length at the
	// last.
	dirtyBit  uint8
	log       statecodec.ChangeLog[meeting.UnifiedID, copyStream]
	ckSamples int
}

const (
	// DefaultMaxPending is the cap on waiting observations when MaxPending
	// is unset.
	DefaultMaxPending = 1 << 16
	// copyMaxAge bounds how long a first observation waits for its copy.
	copyMaxAge = 5 * time.Second
	// copyAgeEvery is how many observations pass between two sweeps that
	// drop the streams idle longer than copyMaxAge: a count of
	// observations and nothing else, as meeting.Dedup ages, so every
	// engine fed the same observation sequence ages identically.
	copyAgeEvery = 4096
	// A ring starts at minRing slots and doubles up to maxRing — the
	// sequence window of rtp.SeqTracker — while two observations that are
	// both still waiting would share a slot.
	minRing = 16
	maxRing = 1024
	// maxCopyFlows is how many five-tuples one unified stream can name: a
	// slot holds the ordinal in a byte.
	maxCopyFlows = 255
)

// copyStream is one unified stream's matcher state.
type copyStream struct {
	id meeting.UnifiedID
	// last is the time of the stream's latest observation.
	last int64
	// flows are the five-tuples the stream was seen on; slots name them by
	// position.
	flows []layers.FiveTuple
	// rings holds one ring per payload type, ascending.
	rings []copyRing
	// mark is the stream's entry in the matcher's change log.
	mark statecodec.Mark
	// The first few five-tuples and rings, and the first ring's first
	// slots, live in the record itself: few streams have more, so most
	// are one allocation.
	flows0 [3]layers.FiveTuple
	rings0 [2]copyRing
	slots0 [minRing]copySlot
}

// newStream gives the matcher an empty stream for id, which it must not
// hold.
func (cm *CopyMatcher) newStream(id meeting.UnifiedID) *copyStream {
	s := &copyStream{id: id, mark: cm.log.NewMark()}
	s.flows, s.rings = s.flows0[:0], s.rings0[:0]
	cm.streams[id] = s
	return s
}

// touch lists a stream changed for the first time since the last
// checkpoint.
func (cm *CopyMatcher) touch(s *copyStream) { cm.log.Touch(&s.mark, &s.id, s) }

type copyRing struct {
	pt uint8
	// dirty marks a ring with dirty slots, or grown, since the last
	// checkpoint encode.
	dirty bool
	slots []copySlot
}

// copySlot is one waiting observation, found at seq mod the ring length.
type copySlot struct {
	at    int64 // capture time in Unix nanoseconds (see Nanos)
	ts    uint32
	seq   uint16
	flow  uint8 // ordinal in copyStream.flows
	flags uint8
}

const (
	slotLive  = 1 << iota // holds an observation
	slotDirty             // written or emptied since the last checkpoint encode
)

// copyStale reports whether something observed at time at is more than
// copyMaxAge old at now. A time after now is not: its age is negative.
func copyStale(now, at int64) bool {
	return now > at && uint64(now-at) > uint64(copyMaxAge)
}

// NewCopyMatcher returns an empty matcher.
func NewCopyMatcher() *CopyMatcher {
	return &CopyMatcher{streams: make(map[meeting.UnifiedID]*copyStream)}
}

// ring returns the stream's ring for pt, nil if it has none.
func (s *copyStream) ring(pt uint8) *copyRing {
	for i := range s.rings {
		if s.rings[i].pt == pt {
			return &s.rings[i]
		}
	}
	return nil
}

// addRing gives the stream an empty ring for pt, which it must not have.
func (cm *CopyMatcher) addRing(s *copyStream, pt uint8) *copyRing {
	i := 0
	for i < len(s.rings) && s.rings[i].pt < pt {
		i++
	}
	slots := s.slots0[:]
	if len(s.rings) > 0 {
		slots = make([]copySlot, minRing)
	}
	s.rings = slices.Insert(s.rings, i, copyRing{pt: pt, dirty: cm.dirtyBit != 0, slots: slots})
	cm.slots += minRing
	return &s.rings[i]
}

// Observe ingests one media packet observation annotated with its
// unified stream ID and returns an RTT sample if this packet pairs with
// an earlier copy on a different flow.
func (cm *CopyMatcher) Observe(unified meeting.UnifiedID, flow layers.FiveTuple, pt uint8, seq uint16, ts uint32, at time.Time) (RTTSample, bool) {
	now := Nanos(at)
	if cm.observed++; cm.observed%copyAgeEvery == 0 {
		cm.sweep(now, false)
	}
	s := cm.streams[unified]
	ord := -1
	var r *copyRing
	if s != nil {
		s.last = now
		cm.touch(s)
		ord = slices.Index(s.flows, flow)
		r = s.ring(pt)
	}
	if r != nil {
		sl := &r.slots[int(seq)&(len(r.slots)-1)]
		if sl.flags&slotLive != 0 && sl.seq == seq && sl.ts == ts &&
			int(sl.flow) != ord && now >= sl.at && uint64(now-sl.at) <= uint64(copyMaxAge) {
			rs := RTTSample{At: now, RTT: time.Duration(now - sl.at), Unified: unified}
			if len(cm.Samples) == cap(cm.Samples) {
				// Doubling: append's 1.25× steps copy a long series five
				// times over, and that was most of a pairing's cost.
				cm.Samples = slices.Grow(cm.Samples, max(len(cm.Samples), 64))
			}
			cm.Samples = append(cm.Samples, rs)
			sl.flags = cm.dirtyBit
			r.dirty = cm.dirtyBit != 0
			cm.pending--
			return rs, true
		}
	}
	// Not a copy: the same flow again (a retransmission), too late or too
	// early for what waits there, or nothing waiting. The observation
	// takes the slot with the observing packet's flow and time — a stale
	// cross-flow copy supersedes the old observation entirely, and keeping
	// the old flow with the new time would let a later same-flow packet
	// pair against it as a bogus RTT sample.
	if s == nil {
		if cm.atCap(now) {
			return RTTSample{}, false
		}
		s = cm.newStream(unified)
		s.last = now
		cm.touch(s)
	}
	if ord < 0 {
		if len(s.flows) == maxCopyFlows {
			return RTTSample{}, false
		}
		ord = len(s.flows)
		s.flows = append(s.flows, flow)
	}
	if r == nil {
		if cm.atCap(now) || !cm.room(minRing) {
			return RTTSample{}, false
		}
		r = cm.addRing(s, pt)
	}
	sl := cm.place(r, seq, now)
	if sl.flags&slotLive == 0 {
		if cm.atCap(now) {
			return RTTSample{}, false
		}
		cm.pending++
	}
	*sl = copySlot{at: now, ts: ts, seq: seq, flow: uint8(ord), flags: slotLive | cm.dirtyBit}
	r.dirty = cm.dirtyBit != 0
	return RTTSample{}, false
}

// place returns the slot for seq, first doubling the ring while that
// slot holds an observation of another sequence number that is not yet
// stale, a longer ring would part the two, and the slot budget allows.
// What the slot holds after that is overwritten: the newest observation
// wins.
func (cm *CopyMatcher) place(r *copyRing, seq uint16, now int64) *copySlot {
	for {
		n := len(r.slots)
		sl := &r.slots[int(seq)&(n-1)]
		if sl.flags&slotLive == 0 || (sl.seq^seq)&(maxRing-1) == 0 || copyStale(now, sl.at) ||
			n == maxRing || !cm.room(n) {
			return sl
		}
		cm.grow(r)
	}
}

// grow doubles the ring. An observation moves to its sequence number's
// position in the longer ring; a dirty slot dirties both positions it
// splits into, since a replica's copy of it may hold an observation that
// lands on either.
func (cm *CopyMatcher) grow(r *copyRing) {
	old := r.slots
	n := len(old)
	r.slots = make([]copySlot, 2*n)
	for i, sl := range old {
		if sl.flags&slotDirty != 0 {
			r.slots[i].flags, r.slots[i+n].flags = slotDirty, slotDirty
		}
		if sl.flags&slotLive != 0 {
			r.slots[int(sl.seq)&(2*n-1)] = sl
		}
	}
	r.dirty = cm.dirtyBit != 0
	cm.slots += n
}

func (cm *CopyMatcher) maxPending() int {
	if cm.MaxPending > 0 {
		return cm.MaxPending
	}
	return DefaultMaxPending
}

// room reports whether the slot budget allows n more slots.
func (cm *CopyMatcher) room(n int) bool { return cm.slots+n <= cm.maxPending()*minRing }

// Pending reports how many observations wait for a copy (for the
// observability gauges).
func (cm *CopyMatcher) Pending() int { return cm.pending }

// atCap reports whether the matcher must turn a new observation or
// stream away. A matcher at its cap first empties the slots that went
// stale — but sweeps at most once per copyAgeEvery observations, so a
// cap that stays full (a burst younger than copyMaxAge, or a clock that
// jumped back and left every slot dated in the future) costs the packets
// behind it a comparison each, not a sweep each.
func (cm *CopyMatcher) atCap(now int64) bool {
	limit := cm.maxPending()
	if cm.pending < limit && len(cm.streams) < limit {
		return false
	}
	if cm.observed >= cm.nextSweep {
		cm.nextSweep = cm.observed + copyAgeEvery
		cm.sweep(now, true)
	}
	return cm.pending >= limit || len(cm.streams) >= limit
}

// sweep drops every stream whose latest observation is stale and, when
// slots is set, empties the stale slots of the others.
func (cm *CopyMatcher) sweep(now int64, slots bool) {
	for id, s := range cm.streams {
		if copyStale(now, s.last) {
			cm.drop(id, s)
			continue
		}
		if !slots {
			continue
		}
		for ri := range s.rings {
			r := &s.rings[ri]
			cm.swept += uint64(len(r.slots))
			for i := range r.slots {
				if sl := &r.slots[i]; sl.flags&slotLive != 0 && copyStale(now, sl.at) {
					sl.flags = cm.dirtyBit
					r.dirty = cm.dirtyBit != 0
					cm.touch(s)
					cm.pending--
				}
			}
		}
	}
}

// drop forgets a stream and everything waiting in it.
func (cm *CopyMatcher) drop(id meeting.UnifiedID, s *copyStream) {
	for _, r := range s.rings {
		cm.slots -= len(r.slots)
		cm.swept += uint64(len(r.slots))
		for _, sl := range r.slots {
			if sl.flags&slotLive != 0 {
				cm.pending--
			}
		}
	}
	delete(cm.streams, id)
	cm.log.Drop(&s.mark, id)
}

// SeriesMS renders the samples as a millisecond time series.
func (cm *CopyMatcher) SeriesMS() Series {
	var s Series
	for _, sm := range cm.Samples {
		s.Add(sm.At, float64(sm.RTT)/float64(time.Millisecond))
	}
	return s
}
