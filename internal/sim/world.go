// Package sim is a discrete-event simulator of Zoom meetings over a
// campus network, producing byte-exact packets in the wire format
// reverse-engineered by the paper (§4.2). It stands in for the paper's
// unobtainable inputs — proprietary Zoom clients, an SFU, and a campus
// border tap — while exercising exactly the analysis code paths the
// authors ran on real traffic.
//
// The model implements the behaviours the paper reports:
//
//   - server-based meetings relay all media through an SFU (multimedia
//     router) on UDP port 8801, with the 8-byte Zoom SFU encapsulation
//     and per-media-type Zoom media encapsulations (Tables 1–2);
//   - two-party meetings switch to a direct P2P flow after a cleartext
//     STUN exchange with a zone controller on port 3478, and revert to
//     the SFU when a third participant joins (§3, §4.1, Figure 2);
//   - SSRCs are small, meeting-unique, non-random values (§4.2.3);
//   - each media stream carries main and FEC substreams (Table 3),
//     RTCP sender reports once per second (types 33/34), and silent
//     audio uses fixed 40-byte type-99 packets;
//   - lost packets are retransmitted with the same RTP sequence number,
//     up to two times, after a ~100 ms + RTT timeout (§5.5);
//   - senders adapt frame rate (28→14 fps) to congestion feedback
//     rather than relying on the SFU (§3);
//   - a TCP control connection to the server carries periodic
//     TLS-like traffic used for the paper's TCP-RTT latency proxy
//     (§5.3 method 2); and
//   - a fraction of packets are opaque control traffic that the
//     analyzer cannot decode, matching the ~10 % undecodable share in
//     Table 2.
//
// A monitor callback taps every packet crossing the campus border, in
// both directions, with border-crossing timestamps — the paper's vantage
// point.
package sim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/netsim"
)

// Options configures a simulated world.
type Options struct {
	// Seed drives all randomness; equal seeds give identical traces.
	Seed int64
	// Start is the virtual start time.
	Start time.Time

	// CampusNet is the prefix campus clients are allocated from.
	CampusNet netip.Prefix
	// ExternalNet is the prefix off-campus clients are allocated from.
	ExternalNet netip.Prefix
	// SFUAddr and ZCAddr are the Zoom multimedia router and zone
	// controller addresses; both must fall in ZoomNet.
	SFUAddr netip.Addr
	ZCAddr  netip.Addr
	// ZoomNet is the prefix announced as Zoom's (for the capture filter).
	ZoomNet netip.Prefix
	// WebRTCAddr is the media server of the standards-RTC application
	// (webrtc-app meetings relay through it). It must NOT fall in
	// ZoomNet: a standards RTC service's servers are not in Zoom's
	// published prefixes, so the capture filter can only find these
	// flows via the STUN exchange (GenericRTC mode).
	WebRTCAddr netip.Addr

	// CampusDelay/CampusJitter shape client↔border legs.
	CampusDelay  time.Duration
	CampusJitter time.Duration
	// WanDelay/WanJitter/WanLoss shape border↔server legs (and the
	// external half of P2P paths).
	WanDelay  time.Duration
	WanJitter time.Duration
	WanLoss   float64

	// SkipExternalDelivery elides SFU→off-campus forwarding. Those legs
	// never cross the monitor (the paper's vantage point cannot see
	// them, §6.1), so campus-scale workloads can skip simulating them;
	// external receivers then produce no QoS ground truth or feedback.
	SkipExternalDelivery bool
}

// DefaultOptions is a healthy campus: 2 ms to the border, 10 ms to the
// SFU, mild jitter, light loss.
func DefaultOptions() Options {
	return Options{
		Seed:         1,
		Start:        time.Date(2022, 5, 5, 9, 0, 0, 0, time.UTC),
		CampusNet:    netip.MustParsePrefix("10.8.0.0/16"),
		ExternalNet:  netip.MustParsePrefix("203.0.113.0/24"),
		ZoomNet:      netip.MustParsePrefix("52.81.0.0/16"),
		SFUAddr:      netip.MustParseAddr("52.81.10.20"),
		ZCAddr:       netip.MustParseAddr("52.81.200.1"),
		WebRTCAddr:   netip.MustParseAddr("198.51.100.40"),
		CampusDelay:  2 * time.Millisecond,
		CampusJitter: 1 * time.Millisecond,
		WanDelay:     10 * time.Millisecond,
		WanJitter:    8 * time.Millisecond,
		WanLoss:      0.0005,
	}
}

// MonitorFunc receives every frame crossing the campus border. The frame
// is lent for the duration of the call, as the analyzer's Packet and the
// capture readers lend theirs: a monitor that keeps a frame, or anything
// parsed out of it, past its return must copy it.
type MonitorFunc func(at time.Time, frame []byte)

// World owns the engine, topology, and the SFU.
type World struct {
	Eng  *netsim.Engine
	Opts Options
	// Monitor taps border-crossing packets; nil disables capture.
	Monitor MonitorFunc

	rng        *rand.Rand
	nextCampus uint32
	nextExt    uint32
	nextMeet   int
	sfu        *sfu

	// frames and sfuPayload are the tap's reused framing buffers.
	frames     layers.Builder
	sfuPayload []byte

	// WanUp/WanDown are the border↔SFU legs shared by all campus
	// clients; congestion episodes are typically installed here.
	WanUp   *netsim.Link
	WanDown *netsim.Link

	// Stats for the Figure 17 reproduction.
	MonitorPackets uint64
	MonitorBytes   uint64
}

// NewWorld builds a world.
func NewWorld(opts Options) *World {
	if opts.Start.IsZero() {
		opts = DefaultOptions()
	}
	w := &World{
		Eng:  netsim.NewEngine(opts.Start),
		Opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
	w.WanUp = netsim.NewLink(w.Eng, opts.WanDelay, opts.WanJitter, opts.WanLoss, opts.Seed^0x1111)
	w.WanDown = netsim.NewLink(w.Eng, opts.WanDelay, opts.WanJitter, opts.WanLoss, opts.Seed^0x2222)
	w.sfu = newSFU(w)
	return w
}

// Now returns virtual time.
func (w *World) Now() time.Time { return w.Eng.Now() }

// Run advances the simulation.
func (w *World) Run(until time.Time) { w.Eng.Run(until) }

// allocAddr hands out client addresses.
func (w *World) allocAddr(campus bool) netip.Addr {
	var p netip.Prefix
	var n *uint32
	if campus {
		p, n = w.Opts.CampusNet, &w.nextCampus
	} else {
		p, n = w.Opts.ExternalNet, &w.nextExt
	}
	*n++
	a4 := p.Addr().As4()
	v := uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3])
	v += *n + 1
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

func (w *World) ephemeralPort() uint16 {
	return uint16(49152 + w.rng.Intn(16000))
}

// segment is one packet in flight: its addressing and payload, not yet
// framed. World.tap frames it only where it crosses the monitor, so a
// leg no tap sees never builds a frame.
type segment struct {
	src, dst netip.AddrPort
	ttl      uint8
	// tcp selects a TCP segment with seq, ack and flags; otherwise UDP.
	tcp      bool
	seq, ack uint32
	flags    layers.TCPFlags
	// fromSFU prefixes payload with a from-SFU Zoom encapsulation
	// numbered sfuSeq: an SFU forward carries the inner payload it
	// relays rather than a re-wrapped copy per destination.
	fromSFU bool
	sfuSeq  uint16
	payload []byte
}

// tap frames s into the world's reused buffer and lends the frame to the
// monitor, stamped with the border-crossing time.
func (w *World) tap(at time.Time, s segment) {
	payload := s.payload
	if s.fromSFU {
		h := Header{Layout: LayoutSFU, SFUType: SFUTypeMedia, SFUSeq: s.sfuSeq, FromSFU: true}
		w.sfuPayload = append(AppendHeaders(w.sfuPayload[:0], &h), payload...)
		payload = w.sfuPayload
	}
	var frame []byte
	if s.tcp {
		frame = w.frames.FrameTCP(s.src, s.dst, s.ttl, s.seq, s.ack, s.flags, 65535, payload)
	} else {
		frame = w.frames.FrameUDP(s.src, s.dst, s.ttl, payload)
	}
	w.MonitorPackets++
	w.MonitorBytes += uint64(len(frame))
	if w.Monitor != nil {
		w.Monitor(at, frame)
	}
}

// path is an ordered pair of legs with an optional monitor tap between
// them. Packets traverse pre, are tapped, then traverse post. For
// off-campus endpoints a path may have a single leg and no tap.
type path struct {
	w *World
	// pre is the leg before the border.
	pre *netsim.Link
	// post is the leg after the border (nil if the path is one leg).
	post *netsim.Link
	// tapped reports whether this path crosses the border.
	tapped bool
	// rttHint is a rough full-path RTT for retransmission timers.
	rttHint time.Duration
}

// deliver sends s along the path. onArrive (optional) runs at final
// delivery; onLost (optional) runs if any leg drops the packet.
func (p *path) deliver(s segment, onArrive func(at time.Time), onLost func()) {
	if onArrive == nil {
		onArrive = func(time.Time) {}
	}
	ok, _ := p.pre.Send(func(at time.Time) {
		if p.tapped {
			p.w.tap(at, s)
		}
		if p.post == nil {
			onArrive(at)
		} else if ok, _ := p.post.Send(onArrive); !ok && onLost != nil {
			onLost()
		}
	})
	if !ok && onLost != nil {
		onLost()
	}
}

// NewMeeting creates a meeting; clients join it with Meeting.Join.
func (w *World) NewMeeting() *Meeting {
	w.nextMeet++
	m := &Meeting{
		w:  w,
		id: w.nextMeet,
		// SSRC bases are small and structured, not random (§4.2.3).
		ssrcBase: uint32(0x01000000 + w.nextMeet*0x100),
	}
	return m
}

// NewWebRTCMeeting creates a meeting of the standards-RTC application:
// participants relay plain RTP/SRTP through the WebRTCAddr media server
// after an ICE-style STUN exchange, with no Zoom encapsulations on the
// wire.
func (w *World) NewWebRTCMeeting() *Meeting {
	m := w.NewMeeting()
	m.app = AppWebRTC
	return m
}

// SFUAddrPort returns the media server endpoint: UDP port 8801, Zoom's
// media servers' (§4.1).
func (w *World) SFUAddrPort() netip.AddrPort {
	return netip.AddrPortFrom(w.Opts.SFUAddr, 8801)
}

// webrtcMediaPort is the UDP port the standards-RTC media server sends
// media from (distinct from the STUN port so the analyzer's STUN-port
// accounting stays meaningful).
const webrtcMediaPort = 50004

// WebRTCAddrPort returns the standards-RTC media server endpoint.
func (w *World) WebRTCAddrPort() netip.AddrPort {
	return netip.AddrPortFrom(w.Opts.WebRTCAddr, webrtcMediaPort)
}

func (w *World) String() string {
	return fmt.Sprintf("sim.World{t=%s, meetings=%d}", w.Now().Format("15:04:05"), w.nextMeet)
}

// clientLinks builds the per-client legs. Campus clients get a pair of
// links to the border; external clients get direct links to the server
// side (never tapped for server traffic).
type clientLinks struct {
	up   *netsim.Link // client → border (campus) or client → far end (external)
	down *netsim.Link // border → client or far end → client
}

func (w *World) newClientLinks(campus bool, seed int64) clientLinks {
	base, jit := w.Opts.CampusDelay, w.Opts.CampusJitter
	if !campus {
		base, jit = w.Opts.WanDelay, w.Opts.WanJitter
	}
	return clientLinks{
		up:   netsim.NewLink(w.Eng, base, jit, 0, seed^0x3333),
		down: netsim.NewLink(w.Eng, base, jit, 0, seed^0x4444),
	}
}

// pathToSFU builds the client→SFU path.
func (w *World) pathToSFU(c *Client) path {
	if c.Campus {
		return path{
			w: w, pre: c.links.up, post: w.WanUp, tapped: true,
			rttHint: 2 * (w.Opts.CampusDelay + w.Opts.WanDelay),
		}
	}
	return path{w: w, pre: c.links.up, tapped: false, rttHint: 2 * w.Opts.WanDelay}
}

// pathFromSFU builds the SFU→client path.
func (w *World) pathFromSFU(c *Client) path {
	if c.Campus {
		return path{
			w: w, pre: w.WanDown, post: c.links.down, tapped: true,
			rttHint: 2 * (w.Opts.CampusDelay + w.Opts.WanDelay),
		}
	}
	return path{w: w, pre: c.links.down, tapped: false, rttHint: 2 * w.Opts.WanDelay}
}

// pathP2P builds the a→b direct path. It crosses the border (and is
// tapped) iff exactly one endpoint is on campus.
func (w *World) pathP2P(a, b *Client) *path {
	switch {
	case a.Campus && !b.Campus:
		return &path{w: w, pre: a.links.up, post: b.links.down, tapped: true,
			rttHint: 2 * (w.Opts.CampusDelay + w.Opts.WanDelay)}
	case !a.Campus && b.Campus:
		return &path{w: w, pre: a.links.up, post: b.links.down, tapped: true,
			rttHint: 2 * (w.Opts.CampusDelay + w.Opts.WanDelay)}
	case a.Campus && b.Campus:
		// Intra-campus: never crosses the border; invisible to the
		// monitor (a documented limitation of border vantage points).
		return &path{w: w, pre: a.links.up, post: b.links.down, tapped: false,
			rttHint: 4 * w.Opts.CampusDelay}
	default:
		return &path{w: w, pre: a.links.up, post: b.links.down, tapped: false,
			rttHint: 4 * w.Opts.WanDelay}
	}
}
