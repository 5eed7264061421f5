package tcprtt

import (
	"time"

	"zoomlens/internal/statecodec"
)

var seqKey = statecodec.UintKey[uint32]()

// Code walks the tracker's state through c: samples already taken plus
// both directions' outstanding-segment tables (an ACK arriving after
// restore must still match data sent before the checkpoint), then the
// last-seen time idle eviction reads.
func (t *Tracker) Code(c *statecodec.Codec) {
	statecodec.LogTail(c, &t.Samples, 0, func(s *Sample) {
		c.Time(&s.Time)
		c.Duration(&s.RTT)
		c.Int((*int)(&s.Side))
	})
	t.clientToServer.code(c)
	t.serverToClient.code(c)
	c.Time(&t.lastSeen)
}

func (d *dirState) code(c *statecodec.Codec) {
	c.Bool(&d.started)
	c.U32(&d.highestEnd)
	if !c.Encoding() {
		d.retx = make(map[uint32]bool)
	}
	statecodec.MapVal(c, seqKey, &d.outstanding, func(seq uint32, at time.Time) time.Time {
		c.Time(&at)
		retx := d.retx[seq]
		if c.Bool(&retx); retx {
			d.retx[seq] = true
		}
		return at
	})
}
