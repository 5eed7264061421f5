package sim

import (
	"time"

	"zoomlens/internal/qos"
)

// receiver is the receiving half of a client: it reassembles incoming
// video frames, maintains the client's own QoS statistics (the ground
// truth the paper reads via the Zoom SDK, §5 "Validation of Metrics"),
// and drives the sender-side rate adaptation of its peers through
// feedback.
type receiver struct {
	c *Client
	// QoS is the per-second statistics log, mimicking the SDK's update
	// cadence and smoothing quirks.
	QoS *qos.Recorder

	// Per-frame accounting for delivered video fps.
	frameSeen   map[frameKey]int
	frameDone   map[frameKey]bool
	deliveredIn int // frames completed in the current second

	// Smoothed packet interarrival jitter, Zoom-style (extremely long
	// smoothing; stays tiny, §5.4).
	lastArrival  time.Time
	lastTS       uint32
	zoomJitterMS float64

	// Congestion signal for adaptation feedback: RFC-style jitter with
	// normal smoothing.
	recentJitterMS float64
}

type frameKey struct {
	ssrc uint32
	ts   uint32
}

func newReceiver(c *Client) *receiver {
	r := &receiver{
		c:         c,
		QoS:       qos.NewRecorder(c.Name),
		frameSeen: make(map[frameKey]int),
		frameDone: make(map[frameKey]bool),
	}
	c.w.Eng.After(time.Second, r.tickSecond)
	return r
}

// receiveMedia is called on final delivery of a media packet to this
// client.
func (c *Client) receiveMedia(at time.Time, pkt *wirePacket) {
	if !c.active || c.recv == nil {
		return
	}
	c.recv.observe(at, pkt)
}

func (r *receiver) observe(at time.Time, pkt *wirePacket) {
	h := &pkt.h
	if h.Kind != KindVideo || (h.PT != PTVideoMain && h.PT != webrtcPTVideo) {
		return
	}
	// Jitter accounting on the first packet of each frame.
	k := frameKey{h.SSRC, h.TS}
	if r.frameSeen[k] == 0 {
		if !r.lastArrival.IsZero() {
			dR := at.Sub(r.lastArrival).Seconds() * videoClockRate
			dS := float64(int32(h.TS - r.lastTS))
			d := dR - dS
			if d < 0 {
				d = -d
			}
			ms := d / videoClockRate * 1000
			// Zoom's reported jitter never exceeded ~2 ms in the paper's
			// experiments even under heavy congestion (§5.4); the paper
			// hypothesizes FEC-aware or heavily smoothed computation. We
			// model it as a glacial EWMA over clamped samples.
			zs := ms
			if zs > 4 {
				zs = 4
			}
			r.zoomJitterMS += (zs - r.zoomJitterMS) / 4096
			// Adaptation signal: responsive EWMA.
			r.recentJitterMS += (ms - r.recentJitterMS) / 8
		}
		r.lastArrival, r.lastTS = at, h.TS
	}
	r.frameSeen[k]++
	if !r.frameDone[k] && h.FramePkts > 0 && r.frameSeen[k] >= int(h.FramePkts) {
		r.frameDone[k] = true
		r.deliveredIn++
	}
	if len(r.frameSeen) > 4096 {
		r.gc()
	}
}

func (r *receiver) gc() {
	for k := range r.frameSeen {
		if int32(r.lastTS-k.ts) > 10*videoClockRate {
			delete(r.frameSeen, k)
			delete(r.frameDone, k)
		}
	}
}

// tickSecond logs QoS once per second and sends adaptation feedback to
// the video sender(s).
func (r *receiver) tickSecond() {
	c := r.c
	if !c.active {
		return
	}
	now := c.w.Now()

	// Ground-truth latency: Zoom reports a client↔server (or peer) RTT
	// estimate, refreshed only every five seconds (§5.3, Figure 10b).
	rtt := r.currentPathRTT(now)
	r.QoS.Record(now, qos.Stats{
		VideoFPS:  float64(r.deliveredIn),
		LatencyMS: float64(rtt) / float64(time.Millisecond),
		JitterMS:  r.zoomJitterMS,
	})
	r.deliveredIn = 0

	// Feedback to senders: everyone in the meeting sending video learns
	// this receiver's congestion signal. This models Zoom's control
	// traffic (which we also emit as opaque packets) closing the
	// adaptation loop at the sender (§3: Zoom adapts the sender's bit-
	// and frame rate, using jitter rather than absolute delay).
	if m := c.meeting; m != nil {
		for _, p := range m.participants {
			if p == c || !p.active {
				continue
			}
			p.onFeedback(r.recentJitterMS)
		}
	}
	c.w.Eng.After(time.Second, r.tickSecond)
}

// currentPathRTT derives the true current RTT from link state.
func (r *receiver) currentPathRTT(now time.Time) time.Duration {
	c := r.c
	m := c.meeting
	if m == nil {
		return 0
	}
	if m.mode == modeP2P {
		if o := m.otherParticipant(c); o != nil {
			p := c.w.pathP2P(c, o)
			return pathRTT(p, now)
		}
	}
	return pathRTT(&c.toSFU, now)
}

func pathRTT(p *path, now time.Time) time.Duration {
	var oneWay time.Duration
	if p.pre != nil {
		mn, mx := p.pre.CurrentDelayBounds(now)
		oneWay += (mn + mx) / 2
	}
	if p.post != nil {
		mn, mx := p.post.CurrentDelayBounds(now)
		oneWay += (mn + mx) / 2
	}
	return 2 * oneWay
}

// onFeedback adapts this client's video sender to the receiver-reported
// jitter: sustained high jitter halves the frame rate; sustained calm
// restores it.
func (c *Client) onFeedback(jitterMS float64) {
	for _, s := range c.senders {
		if s.video == nil {
			continue
		}
		switch {
		case jitterMS > 12 && !s.congested:
			c.badSeconds++
			if c.badSeconds >= 2 {
				s.congested = true
				c.goodSeconds = 0
			}
		case jitterMS < 6 && s.congested:
			c.goodSeconds++
			if c.goodSeconds >= 5 {
				s.congested = false
				c.badSeconds = 0
			}
		default:
			if jitterMS <= 12 {
				c.badSeconds = 0
			}
			if jitterMS >= 6 {
				c.goodSeconds = 0
			}
		}
		s.video.SetReduced(s.thumbnail || s.congested)
	}
}
