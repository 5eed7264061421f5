package metrics

import (
	"cmp"
	"slices"

	"zoomlens/internal/statecodec"
)

// Checkpoint boundary for the metric accumulators. StreamMetrics is the
// deepest composite in the system — per-substream frame assemblers,
// shared sequence trackers, jitter estimators, rate bins, stall and talk
// models — and every piece is mid-computation state that must survive a
// restore exactly for the byte-identical-report invariant to hold.

var (
	u8Key  = statecodec.UintKey[uint8]()
	u16Key = statecodec.UintKey[uint16]()
)

func (s *Series) code(c *statecodec.Codec) {
	statecodec.Slice(c, &s.Samples, 0, func(sm *Sample) {
		c.I64(&sm.At)
		c.F64(&sm.Value)
	})
}

// Code walks the stream analyzer through c. The record carries the
// media type and what was accumulated from packets; a decoding pass
// makes the receiver (whatever it held) the empty analyzer of that type
// the way NewStreamMetrics does, builds substreams with newSub, and
// fills both in — so a restored stream has the clock, the models and
// the limits of the code that restores it.
func (sm *StreamMetrics) Code(c *statecodec.Codec) {
	mt := sm.MediaType
	if c.U8((*uint8)(&mt)); !c.Encoding() {
		sm.init(mt)
	}
	c.Bool(&sm.finished)

	c.U64(&sm.Packets)
	c.U64(&sm.MediaBytes)
	c.U64(&sm.WireBytes)
	c.U64(&sm.FramesTotal)
	c.U64(&sm.FramesIncomplete)

	sm.FrameRate.code(c)
	sm.EncoderRate.code(c)
	sm.FrameSize.code(c)
	sm.FrameDelay.code(c)
	sm.JitterMS.code(c)
	sm.Packetization.code(c)
	sm.MediaRate.code(c)
	sm.WireRate.code(c)

	c.Bool(&sm.haveBin)
	c.I64(&sm.binStart)
	c.U64(&sm.binWire)
	c.U64(&sm.binMedia)

	statecodec.Slice(c, &sm.frameObs, 0, func(fo *FrameObservation) {
		c.I64(&fo.At)
		c.U32(&fo.TS)
	})

	if sm.Stall != nil {
		sm.Stall.code(c)
	}
	if sm.Talk != nil {
		sm.Talk.code(c)
	}

	statecodec.Map(c, u8Key, &sm.subs, sm.newSub, nil, func(_ uint8, st *substreamState) {
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

func (d *StallDetector) code(c *statecodec.Codec) {
	statecodec.Slice(c, &d.Events, 0, func(e *StallEvent) {
		c.Time(&e.Start)
		c.Duration(&e.Duration)
		c.Int(&e.FramesLate)
	})
	c.Bool(&d.started)
	c.Duration(&d.buffer)
	c.Bool(&d.stalled)
	c.Time(&d.stallAt)
	c.Int(&d.lateRun)
	c.Time(&d.lastSeen)
}

func (t *TalkTracker) code(c *statecodec.Codec) {
	statecodec.Slice(c, &t.segments, 0, func(s *TalkSegment) {
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

// The copy matcher's state is a pending map (bounded by MaxPending, but
// at the cap that is still tens of thousands of entries to sort and
// re-serialize) plus an append-only Samples slice; writing both whole
// into every delta record made the matcher the dominant cost of an
// otherwise churn-proportional delta. Instead the matcher tracks, while
// armed, which pending keys were upserted (dirty) or deleted (dead)
// since the last checkpoint encode, and remembers the Samples length at
// that encode — Samples only ever grows, so a delta carries just the
// tail.

// maxCopyDelta bounds the mutation backlog a delta is willing to carry;
// past it the matcher flags overflow and the owner falls back to a full
// snapshot (which resets everything).
const maxCopyDelta = 1 << 20

// touch records an upsert of k while armed. A key can flip between the
// dirty and dead sets (matched then re-observed before the next
// checkpoint); the sets stay disjoint so apply order cannot matter.
func (cm *CopyMatcher) touch(k copyKey) {
	if !cm.armed || cm.overflow {
		return
	}
	delete(cm.dead, k)
	if len(cm.dirty) >= maxCopyDelta {
		cm.overflow = true
		return
	}
	if cm.dirty == nil {
		cm.dirty = make(map[copyKey]struct{})
	}
	cm.dirty[k] = struct{}{}
}

// bury records a deletion of k while armed.
func (cm *CopyMatcher) bury(k copyKey) {
	if !cm.armed || cm.overflow {
		return
	}
	delete(cm.dirty, k)
	if len(cm.dead) >= maxCopyDelta {
		cm.overflow = true
		return
	}
	if cm.dead == nil {
		cm.dead = make(map[copyKey]struct{})
	}
	cm.dead[k] = struct{}{}
}

// DeltaOverflow reports whether the mutation backlog outgrew what a
// delta can carry; the owner must fall back to a full snapshot.
func (cm *CopyMatcher) DeltaOverflow() bool { return cm.overflow }

// MarkCheckpointed resets delta tracking after a checkpoint encode or
// decode: the current state is fully captured, so the mutation sets
// clear, the Samples baseline re-anchors, and the matcher arms for the
// next delta.
func (cm *CopyMatcher) MarkCheckpointed() {
	clear(cm.dirty)
	clear(cm.dead)
	cm.ckSamples = len(cm.Samples)
	cm.overflow = false
	cm.armed = true
}

var copyKeyKey = &statecodec.Key[copyKey]{Min: 4,
	Compare: func(a, b copyKey) int {
		if c := cmp.Compare(a.unified, b.unified); c != 0 {
			return c
		}
		if a.pt != b.pt {
			return int(a.pt) - int(b.pt)
		}
		if a.seq != b.seq {
			return int(a.seq) - int(b.seq)
		}
		return cmp.Compare(a.ts, b.ts)
	},
	Code: func(c *statecodec.Codec, k copyKey) copyKey {
		c.Int((*int)(&k.unified))
		c.U8(&k.pt)
		c.U16(&k.seq)
		c.U32(&k.ts)
		return k
	}}

// Code walks the copy matcher through c. Pending observations are live
// latency state: a downlink copy arriving after restore must still pair
// with its uplink observation from before the checkpoint. The record
// carries the Samples baseline its tail extends (0 for a full record),
// so applying a delta to the wrong base state fails loudly. Callers
// must check DeltaOverflow before a delta encode and call
// MarkCheckpointed after any successful pass; a matcher whose decoding
// pass failed may be partially mutated and must be discarded.
func (cm *CopyMatcher) Code(c *statecodec.Codec) {
	base := cm.ckSamples
	if c.Full() {
		base = 0
	}
	if c.Int(&base); !c.Encoding() && base != len(cm.Samples) {
		c.Failf("metrics.CopyMatcher baseline %d samples does not match matcher at %d samples", base, len(cm.Samples))
		return
	}
	statecodec.Slice(c, &cm.Samples, base, func(s *RTTSample) {
		c.Time(&s.Time)
		c.Duration(&s.RTT)
		c.Int((*int)(&s.Unified))
	})

	dead := make([]copyKey, 0, len(cm.dead))
	for k := range cm.dead {
		dead = append(dead, k)
	}
	statecodec.Tombstones(c, copyKeyKey, dead, func(k copyKey) { delete(cm.pending, k) })
	statecodec.MapSet(c, copyKeyKey, &cm.pending, cm.dirty, func(_ copyKey, o obs) (obs, bool) {
		c.Time(&o.at)
		o.flow.Code(c)
		return o, true
	})
}
