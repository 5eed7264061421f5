package capture

import (
	"net/netip"
	"time"

	"zoomlens/internal/statecodec"
)

// Code walks the filter's mutable state through c. The STUN-armed P2P
// table is live classification state: a restored run must keep
// recognizing P2P media flows whose arming STUN exchange happened before
// the checkpoint, or its reports diverge from an uninterrupted run. The
// prefix matchers and config are rebuilt by NewFilter, not serialized,
// so a decoding pass keeps the configuration the filter was constructed
// with.
func (f *Filter) Code(c *statecodec.Codec) {
	c.U64(&f.stats.Processed)
	c.U64(&f.stats.ZoomServer)
	c.U64(&f.stats.ZoomSTUN)
	c.U64(&f.stats.ZoomP2P)
	c.U64(&f.stats.Dropped)
	c.U64(&f.stats.P2PEvicted)
	c.U64(&f.stats.P2PInserted)
	c.U64(&f.stats.P2PFormatRejected)
	statecodec.MapVal(c, statecodec.AddrPortKey, &f.p2p, func(_ netip.AddrPort, at time.Time) time.Time {
		c.Time(&at)
		return at
	})
}
