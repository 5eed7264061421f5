package features

import (
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/statecodec"
)

// Code walks the windower through c — configuration, clock, per-stream
// continuity state, open accumulators, and the undrained pending rows —
// so a restored engine emits exactly the rows an uninterrupted run
// would. The windower has no dirty tracking (its live state is a
// handful of open accumulators, bounded by idle eviction), so every
// record carries it whole and a decoding pass needs a fresh receiver.
// The window duration comes from the record (it is part of the emitted
// rows' identity), so a restored engine keeps the original grid
// regardless of the restoring process's configuration.
func (w *Windower) Code(c *statecodec.Codec) {
	c.Duration(&w.window)
	c.Time(&w.clock)
	c.I64(&w.curIdx)
	c.Bool(&w.started)
	if w.window < time.Millisecond {
		c.Failf("features.windower: bad window %v", w.window)
		return
	}
	w.setWindow(w.curIdx)

	statecodec.Map(c, flow.StreamIDKey, &w.streams, nil, nil, func(_ flow.MediaStreamID, s *streamWin) {
		c.Time(&s.lastAt)
		for i := range s.seqValid {
			c.Bool(&s.seqValid[i])
			c.U16(&s.lastSeq[i])
		}
		c.Bool(&s.tsValid)
		c.U32(&s.lastTS)
		if c.Bool(&s.open); s.open {
			s.acc.code(c)
		}
	})
	statecodec.Slice(c, &w.pending, 0, func(r *Row) { r.code(c) })
}

func (a *winAcc) code(c *statecodec.Codec) {
	c.U64(&a.pkts)
	c.U64(&a.wireBytes)
	c.U64(&a.payloadBytes)
	c.U64(&a.iatN)
	c.F64(&a.iatSum)
	c.F64(&a.iatSumSq)
	c.F64(&a.iatMin)
	c.F64(&a.iatMax)
	c.Int(&a.bursts)
	c.Int(&a.curRun)
	c.Int(&a.maxRun)
	c.F64(&a.sizeSum)
	c.F64(&a.sizeSumSq)
	c.Int(&a.sizeMin)
	c.Int(&a.sizeMax)
	for i := range a.hist {
		c.U64(&a.hist[i])
	}
	c.Int(&a.seqLost)
	c.Int(&a.seqDup)
	c.Int(&a.frameMarks)
}

func (r *Row) code(c *statecodec.Codec) {
	if c.Time(&r.Start); !c.Encoding() {
		r.Start = r.Start.UTC()
	}
	c.Duration(&r.Window)
	r.ID.Code(c)
	c.U64(&r.Packets)
	c.U64(&r.WireBytes)
	c.U64(&r.PayloadBytes)
	c.F64(&r.IATMeanMS)
	c.F64(&r.IATStdMS)
	c.F64(&r.IATMinMS)
	c.F64(&r.IATMaxMS)
	c.Int(&r.Bursts)
	c.Int(&r.MaxBurstPkts)
	c.F64(&r.SizeMeanB)
	c.F64(&r.SizeStdB)
	c.Int(&r.SizeMinB)
	c.Int(&r.SizeMaxB)
	c.F64(&r.SizeEntropy)
	c.Int(&r.SeqLost)
	c.Int(&r.SeqDup)
	c.Int(&r.FrameMarks)
}
