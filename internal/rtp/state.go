package rtp

import (
	"zoomlens/internal/statecodec"
)

// Checkpoint boundary for the RTP accumulators: the sequence tracker
// and the jitter estimator are the innermost mutable state of every
// metric engine, so they are walked here and the metrics layer composes
// them.

var seqKey = statecodec.UintKey[uint32]()

// Code walks the tracker's fields through c.
func (t *SeqTracker) Code(c *statecodec.Codec) {
	c.Bool(&t.started)
	c.U16(&t.maxSeq)
	c.U32(&t.cycles)
	c.U64(&t.received)
	c.U64(&t.dups)
	c.U64(&t.reorder)
	c.U32(&t.baseExt)
	c.U32(&t.seenWindow)
	statecodec.MapVal(c, seqKey, &t.seen, nil)
}

// Code walks the estimator's fields through c. The clock rate is the
// constructor's argument, not state: a decoding pass needs a receiver
// from NewJitter.
func (j *Jitter) Code(c *statecodec.Codec) {
	c.Bool(&j.started)
	c.F64(&j.prevR)
	c.U32(&j.prevS)
	c.F64(&j.j)
}
