package metrics

import (
	"cmp"
	"slices"

	"zoomlens/internal/layers"
	"zoomlens/internal/meeting"
	"zoomlens/internal/statecodec"
)

// Checkpoint boundary for the metric accumulators. StreamMetrics is the
// deepest composite in the system — per-substream frame assemblers,
// shared sequence trackers, jitter estimators, rate bins, the talk model
// — and every piece is mid-computation state that must survive a
// restore exactly for the byte-identical-report invariant to hold.

var (
	u8Key  = statecodec.UintKey[uint8]()
	u16Key = statecodec.UintKey[uint16]()
)

// code walks the samples from index from on (see statecodec.LogTail).
func (s *Series) code(c *statecodec.Codec, from int) {
	statecodec.LogTail(c, &s.Samples, from, func(sm *Sample) {
		c.I64(&sm.At)
		c.F64(&sm.Value)
	})
}

// Code walks the stream analyzer through c. The record carries the
// media type and what was accumulated from packets; a decoding pass
// makes the receiver the empty analyzer of that type the way
// NewStreamMetrics does, builds substreams with newSub, and fills both
// in — so a restored stream has the clock, the models and the limits of
// the code that restores it.
//
// The four append-only logs travel as tails. A delta pass writes each from
// the length MarkDirty noted, a full pass from 0, and the record says from
// where; a decoding pass keeps the logs the receiver holds, refuses a
// record that does not start where they end, and appends. Everything else
// — counters, the open rate bin, the talk model's head, the substreams —
// is carried whole.
func (sm *StreamMetrics) Code(c *statecodec.Codec) { sm.code(c, c.Full()) }

// CodeWhole is Code for a stream no later record will extend — one
// archived at idle eviction: an encoding pass writes its logs from 0
// whatever the pass's kind.
func (sm *StreamMetrics) CodeWhole(c *statecodec.Codec) { sm.code(c, true) }

func (sm *StreamMetrics) code(c *statecodec.Codec, whole bool) {
	mt := sm.MediaType
	if c.U8((*uint8)(&mt)); !c.Encoding() {
		held := *sm
		sm.init(mt)
		if held.MediaType == mt {
			sm.frames, sm.JitterMS, sm.MediaRate = held.frames, held.JitterMS, held.MediaRate
			if sm.Talk != nil && held.Talk != nil {
				sm.Talk.segments = held.Talk.segments
			}
		}
	}
	from := sm.base
	if whole {
		from = logLens{}
	}
	c.Int(&from.frames)
	c.Int(&from.jitter)
	c.Int(&from.media)
	c.Int(&from.talk)
	if held := sm.logLens(); !c.Encoding() && from != held {
		c.Failf("metrics.StreamMetrics log baselines %+v do not match the stream's logs at %+v", from, held)
		return
	}
	c.Bool(&sm.finished)

	c.U64(&sm.Packets)
	c.U64(&sm.MediaBytes)

	sm.JitterMS.code(c, from.jitter)
	sm.MediaRate.code(c, from.media)

	c.Bool(&sm.haveBin)
	c.I64(&sm.binStart)
	c.U64(&sm.binMedia)

	if sm.Talk != nil {
		sm.Talk.code(c, from.talk)
	}

	var buf [8]uint8
	pts := buf[:0]
	for _, st := range sm.subs {
		pts = append(pts, st.pt)
	}
	statecodec.Keys(c, u8Key, pts, func(pt uint8) {
		st := sm.sub(pt)
		// FEC substreams own their sequence space; the shared main
		// space follows the substreams, once.
		if !st.isMain {
			st.seq.Code(c)
		}
		statecodec.Slice(c, &st.window.times, st.window.head, c.I64) // what is still inside the window
		c.U32(&st.encoder.lastTS)
		c.Bool(&st.encoder.seen)
		if st.jitter != nil {
			st.jitter.Code(c)
			st.tsSeen.code(c)
		}
		st.assembler.code(c)
	})
	// newSub created the shared tracker with the first main substream,
	// in either direction.
	if sm.mainSeq != nil {
		sm.mainSeq.Code(c)
	}

	// The frame log goes last: a record names its substream, so a
	// decoding pass can hold each one against the substreams just built.
	statecodec.LogTail(c, &sm.frames, from.frames, func(f *FrameRecord) {
		c.I64(&f.At)
		c.I64(&f.Delay)
		c.U32(&f.TS)
		c.U32(&f.Bytes)
		c.U32(&f.Rate)
		c.U32(&f.DeltaTS)
		c.U8(&f.PT)
		c.Bool(&f.Complete)
		if c.Encoding() || c.Err() != nil {
			return
		}
		switch {
		case f.DeltaTS != 0 && sm.clockRate == 0:
			c.Failf("metrics.StreamMetrics frame with ΔRTP %d on a %s stream, which has no clock", f.DeltaTS, sm.MediaType)
		case sm.find(f.PT) == nil:
			c.Failf("metrics.StreamMetrics frame of payload type %d, which has no substream", f.PT)
		}
	})
}

// code walks the timestamps the ring holds, oldest first, so a ring
// decodes filled from position 0 however far the encoder's had turned.
func (r *tsRing) code(c *statecodec.Codec) {
	n := min(r.added, len(r.ts))
	if c.Int(&n); n < 0 || n > len(r.ts) {
		c.Failf("metrics.tsRing of %d timestamps", n)
		return
	}
	if !c.Encoding() {
		r.added = n
	}
	for i := range n {
		c.U32(&r.ts[(r.added-n+i)%len(r.ts)])
	}
	c.U32(&r.newest)
}

func (a *FrameAssembler) code(c *statecodec.Codec) {
	c.U32(&a.lastTS)
	c.Bool(&a.seen)
	// Open frames in the order they started: a flush evicts the head, so
	// the order is behavioral state.
	n := len(a.open)
	if c.Int(&n); n < 0 || n > maxOpenFrames {
		c.Failf("metrics.FrameAssembler with %d open frames", n)
		return
	}
	if !c.Encoding() {
		a.open = make([]openFrame, n)
	}
	for i := range a.open {
		of := &a.open[i]
		c.U32(&of.RTPTimestamp)
		if !c.Encoding() && slices.ContainsFunc(a.open[:i], func(o openFrame) bool { return o.RTPTimestamp == of.RTPTimestamp }) {
			c.Failf("metrics.FrameAssembler duplicate open frame %d", of.RTPTimestamp)
			return
		}
		c.U16(&of.FrameSequence)
		c.I64(&of.FirstPacket)
		c.I64(&of.Completed)
		c.Int(&of.Packets)
		c.Int(&of.ExpectedPackets)
		c.Int(&of.Bytes)
		c.Bool(&of.SawMarker)
		// The distinct sequence numbers seen are written sorted, not in
		// arrival order, so the encoding is canonical; dup detection is
		// order-independent on restore.
		statecodec.Keys(c, u16Key, of.seqs, func(s uint16) {
			if !c.Encoding() {
				of.seqs = append(of.seqs, s)
			}
		})
	}
}

func (t *TalkTracker) code(c *statecodec.Codec, from int) {
	statecodec.Slice(c, &t.segments, from, func(s *TalkSegment) {
		c.Time(&s.Start)
		c.Time(&s.End)
	})
	c.Bool(&t.open)
	c.Time(&t.start)
	c.Time(&t.last)
	c.U64(&t.speakingPkts)
	c.U64(&t.silentPkts)
	c.U64(&t.unknownPkts)
	c.Time(&t.firstSeen)
	c.Time(&t.lastSeen)
}

// The copy matcher's delta is proportional to change. Every write to a
// slot — an observation stored, matched away or aged out — sets the
// slot's dirty bit and its ring's, and lists its stream on the change
// log; a delta record carries the listed streams' headers, the dirty
// rings' lengths and the dirty slots, whole or as "now empty", after the
// log's tombstones. Samples only ever grows, so a delta carries just the
// tail past the length at the last encode.

// MarkCheckpointed resets delta tracking after a checkpoint encode or
// decode: the current state is fully captured, so the listed streams'
// ring and slot bits clear, the log re-anchors and the Samples baseline
// moves on. The first call arms the tracking.
func (cm *CopyMatcher) MarkCheckpointed() {
	for _, e := range cm.log.Changed() {
		s := e.V
		for ri := range s.rings {
			r := &s.rings[ri]
			if !r.dirty {
				continue
			}
			r.dirty = false
			for i := range r.slots {
				r.slots[i].flags &^= slotDirty
			}
		}
	}
	cm.log.MarkCheckpointed()
	cm.ckSamples = cm.Samples.Len()
	cm.dirtyBit = slotDirty
}

var unifiedKey = &statecodec.Key[meeting.UnifiedID]{Min: 1, Compare: cmp.Compare[meeting.UnifiedID],
	// The sign bit flipped: the id's order, exact, as an unsigned word.
	Prefix: func(id meeting.UnifiedID) uint64 { return uint64(id) ^ 1<<63 },
	Code: func(c *statecodec.Codec, id meeting.UnifiedID) meeting.UnifiedID {
		c.Int((*int)(&id))
		return id
	}}

// Code walks the copy matcher through c. Waiting observations are live
// latency state: a downlink copy arriving after restore must still pair
// with its uplink observation from before the checkpoint. The record
// carries the Samples baseline its tail extends (0 for a full record),
// so applying a delta to the wrong base state fails loudly; then the
// ageing clock, the tombstones, and the selected streams in id order,
// their rings in payload-type order, their slots in slot order. Callers
// must call MarkCheckpointed after any successful pass; a matcher whose
// decoding pass failed may be partially mutated and must be discarded.
func (cm *CopyMatcher) Code(c *statecodec.Codec) {
	base := cm.ckSamples
	if c.Full() {
		base = 0
	}
	if c.Int(&base); !c.Encoding() && base != cm.Samples.Len() {
		c.Failf("metrics.CopyMatcher baseline %d samples does not match matcher at %d samples", base, cm.Samples.Len())
		return
	}
	statecodec.LogTail(c, &cm.Samples, base, func(s *RTTSample) {
		c.I64(&s.At)
		c.Duration(&s.RTT)
		c.Int((*int)(&s.Unified))
	})
	c.U64(&cm.observed)
	c.U64(&cm.nextSweep)

	statecodec.Tombstones(c, unifiedKey, &cm.log, func(id meeting.UnifiedID) {
		if s := cm.streams[id]; s != nil {
			cm.drop(id, s)
		}
	})
	type streamEntry = statecodec.Entry[meeting.UnifiedID, *copyStream]
	var sel []streamEntry
	switch {
	case !c.Encoding():
	case c.Full():
		sel = make([]streamEntry, 0, len(cm.streams))
		for id, s := range cm.streams {
			sel = append(sel, streamEntry{K: id, V: s})
		}
	default:
		sel = cm.log.Changed()
	}
	statecodec.Records(c, unifiedKey, sel, func(id meeting.UnifiedID, s *copyStream, _ int) {
		if !c.Encoding() {
			if s = cm.streams[id]; s == nil {
				s = cm.newStream(id)
			}
			// Building rings on an armed matcher dirties them; listed, the
			// stream is cleaned with the rest after the pass.
			cm.touch(s)
		}
		c.I64(&s.last)
		statecodec.Slice(c, &s.flows, 0, func(ft *layers.FiveTuple) { ft.Code(c) })
		if len(s.flows) > maxCopyFlows {
			c.Failf("metrics.CopyMatcher stream on %d five-tuples", len(s.flows))
			return
		}
		var buf [8]uint8
		pts := buf[:0]
		for i := range s.rings {
			if c.Full() || s.rings[i].dirty {
				pts = append(pts, s.rings[i].pt)
			}
		}
		statecodec.Keys(c, u8Key, pts, func(pt uint8) {
			r := s.ring(pt)
			if r == nil {
				r = cm.addRing(s, pt)
			}
			cm.codeRing(c, r, len(s.flows))
		})
	})
}

// codeRing walks one ring: its length — a decoding pass grows its own to
// it, exactly as the packet path would have — then the selected slots in
// slot order, live ones on a full pass and dirty ones, live or emptied,
// on a delta. flows is how many five-tuples a slot may name.
func (cm *CopyMatcher) codeRing(c *statecodec.Codec, r *copyRing, flows int) {
	n := len(r.slots)
	if c.Int(&n); n < len(r.slots) || n > maxRing || n&(n-1) != 0 {
		c.Failf("metrics.CopyMatcher ring of %d slots onto one of %d", n, len(r.slots))
		return
	}
	for len(r.slots) < n {
		cm.grow(r)
	}
	sel := uint8(slotDirty)
	if c.Full() {
		sel = slotLive
	}
	count := 0
	if c.Encoding() {
		for i := range r.slots {
			if r.slots[i].flags&sel != 0 {
				count++
			}
		}
	}
	if c.Int(&count); count < 0 || count > n {
		c.Failf("metrics.CopyMatcher ring of %d slots with %d records", n, count)
		return
	}
	for at := -1; count > 0; count-- {
		pos := at + 1
		for c.Encoding() && r.slots[pos].flags&sel == 0 {
			pos++
		}
		if c.Int(&pos); pos <= at || pos >= n {
			c.Failf("metrics.CopyMatcher slot %d after slot %d of %d", pos, at, n)
			return
		}
		at = pos
		sl := &r.slots[pos]
		e := *sl
		live := e.flags&slotLive != 0
		if c.Bool(&live); live {
			c.U16(&e.seq)
			c.U32(&e.ts)
			c.I64(&e.at)
			c.U8(&e.flow)
		}
		if c.Encoding() {
			continue
		}
		switch {
		case c.Err() != nil:
			return
		case !live:
			e = copySlot{}
		case int(e.seq)&(n-1) != pos || int(e.flow) >= flows:
			c.Failf("metrics.CopyMatcher slot %d holds sequence number %d of flow %d (%d known)", pos, e.seq, e.flow, flows)
			return
		default:
			e.flags = slotLive
		}
		if sl.flags&slotLive != 0 {
			cm.pending--
		}
		if *sl = e; live {
			cm.pending++
		}
	}
}
