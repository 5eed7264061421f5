package rtp

import (
	"zoomlens/internal/statecodec"
)

// Checkpoint boundary for the RTP accumulators: the sequence tracker
// and the jitter estimator are the innermost mutable state of every
// metric engine, so they are walked here and the metrics layer composes
// them.

// Code walks the tracker's fields through c.
func (t *SeqTracker) Code(c *statecodec.Codec) {
	c.Bool(&t.started)
	c.U16(&t.maxSeq)
	c.U32(&t.cycles)
	c.U64(&t.received)
	c.U64(&t.dups)
	c.U64(&t.reorder)
	c.U32(&t.baseExt)
	// The window's words from the one holding maxSeq backwards, less the
	// all-zero tail: a young stream's record is a word or two.
	const words = len(t.seen)
	top, n := int(t.maxSeq%seqWindow/64)+words, words
	for c.Encoding() && n > 0 && t.seen[(top-n+1)%words] == 0 {
		n--
	}
	if c.Int(&n); n < 0 || n > words {
		c.Failf("rtp.SeqTracker window of %d words", n)
		return
	}
	if !c.Encoding() {
		t.seen = [words]uint64{}
	}
	for i := 0; i < n; i++ {
		c.U64(&t.seen[(top-i)%words])
	}
	if holdsTop := t.seen[top%words]>>(t.maxSeq%64)&1 == 1; holdsTop != t.started || !t.started && n > 0 {
		c.Failf("rtp.SeqTracker window does not match its highest sequence number")
	}
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
