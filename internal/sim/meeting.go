package sim

import (
	"encoding/binary"
	"net/netip"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/stun"
)

// meetingMode is the current media topology.
type meetingMode int

const (
	modeSFU meetingMode = iota
	modeP2P
)

// App selects which conferencing application a meeting models.
type App int

// Applications.
const (
	// AppZoom is the paper's subject: proprietary SFU + media
	// encapsulations, Zoom-net servers, zone-controller STUN for P2P.
	AppZoom App = iota
	// AppWebRTC is a standards-based RTC application (Meet/Webex-shaped):
	// plain RTP/SRTP over one bundled UDP flow to a media server outside
	// Zoom's prefixes, found by the capture filter only through its
	// ICE-style STUN exchange.
	AppWebRTC
)

// Meeting orchestrates participants, the SFU↔P2P transitions of §3, and
// the STUN establishment of §4.1.
type Meeting struct {
	w        *World
	id       int
	ssrcBase uint32
	app      App

	participants []*Client
	mode         meetingMode
	// p2pEnabled permits direct connections for two-party meetings.
	p2pEnabled bool
	// reverted records that the meeting fell back to the SFU after a
	// third participant joined: it then never returns to P2P (§3).
	reverted bool
	// P2PSwitchDelay is how long after the second join the direct
	// connection activates ("within tens of seconds").
	P2PSwitchDelay time.Duration
	// stunSeq counts the STUN transactions this meeting has started.
	stunSeq uint64
}

// nextTransactionID derives the next STUN transaction ID from (world
// seed, meeting, per-meeting counter) by two rounds of the splitmix64
// finalizer, so a seeded trace is reproducible byte for byte. It draws
// from no rng stream: everything else a seed generates is unaffected.
func (m *Meeting) nextTransactionID() stun.TransactionID {
	mix := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		return x ^ x>>31
	}
	m.stunSeq++
	hi := mix(uint64(m.w.Opts.Seed) ^ uint64(m.id)<<32 ^ m.stunSeq)
	var id stun.TransactionID
	binary.BigEndian.PutUint64(id[:8], hi)
	binary.BigEndian.PutUint32(id[8:], uint32(mix(hi)))
	return id
}

// serverAddr is the address of the application's server side: the Zoom
// multimedia router or the standards-RTC media server.
func (m *Meeting) serverAddr() netip.Addr {
	if m.app == AppWebRTC {
		return m.w.Opts.WebRTCAddr
	}
	return m.w.Opts.SFUAddr
}

// EnableP2P allows this meeting to use a direct connection while it has
// exactly two participants.
func (m *Meeting) EnableP2P(switchDelay time.Duration) {
	m.p2pEnabled = true
	if switchDelay <= 0 {
		switchDelay = 12 * time.Second
	}
	m.P2PSwitchDelay = switchDelay
}

// Join adds a client to the meeting at the current virtual time.
func (m *Meeting) Join(c *Client, set MediaSet) {
	c.meeting = m
	c.set = set
	c.active = true
	c.mediaPort = m.w.ephemeralPort()
	m.participants = append(m.participants, c)
	c.recv = newReceiver(c)
	c.startTCPControl()
	if m.app == AppWebRTC {
		// ICE before media: the connectivity check (STUN from the media
		// port to the server's well-known STUN port) completes before the
		// first RTP packet, exactly the ordering the GenericRTC capture
		// filter depends on to arm the endpoint.
		c.sendICESTUN()
		m.w.Eng.After(webrtcICEDelay, func() {
			if c.active {
				c.startSenders()
			}
		})
	} else {
		c.startSenders()
	}
	m.updateThumbnails()

	if m.app == AppWebRTC {
		// Standards-RTC meetings always relay through the media server in
		// this model; the Zoom-specific P2P transitions do not apply.
		if len(m.participants) >= 3 {
			m.reverted = true
		}
		return
	}
	switch {
	case len(m.participants) == 2 && m.p2pEnabled && !m.reverted:
		// Second participant: begin the STUN exchange now, switch later.
		m.prepareP2P()
	case len(m.participants) >= 3 && m.mode == modeP2P:
		// Third participant: revert to the SFU immediately and stay.
		m.switchToSFU()
		m.reverted = true
	case len(m.participants) >= 3:
		m.reverted = true
	}
}

// Leave removes a client. Streams stop; remaining participants continue.
func (m *Meeting) Leave(c *Client) {
	c.active = false
	for _, s := range c.senders {
		s.stopped = true
	}
	if c.tcp != nil {
		c.tcp.stop()
	}
	for i, p := range m.participants {
		if p == c {
			m.participants = append(m.participants[:i], m.participants[i+1:]...)
			break
		}
	}
	if m.mode == modeP2P && len(m.participants) < 2 {
		m.switchToSFU()
	}
	m.updateThumbnails()
}

// updateThumbnails applies the §5.1 user-interface effect: while someone
// shares a screen, other participants' video is displayed as thumbnails
// and Zoom halves its frame rate — a rate change with no network cause.
func (m *Meeting) updateThumbnails() {
	sharing := false
	for _, p := range m.participants {
		if p.active && p.set.Screen {
			sharing = true
			break
		}
	}
	for _, p := range m.participants {
		if !p.active {
			continue
		}
		for _, s := range p.senders {
			if s.video != nil {
				s.thumbnail = sharing && !p.set.Screen
				s.video.SetReduced(s.thumbnail || s.congested)
			}
		}
	}
}

// IsP2P reports the current mode.
func (m *Meeting) IsP2P() bool { return m.mode == modeP2P }

// audioForwarded reports whether the SFU relays this sender's audio:
// only the first maxAudioForward unmuted participants' audio is
// replicated, modeling Zoom's active-speaker audio selection.
const maxAudioForward = 3

func (m *Meeting) audioForwarded(from *Client) bool {
	n := 0
	for _, p := range m.participants {
		if !p.set.Audio || !p.active {
			continue
		}
		if p == from {
			return n < maxAudioForward
		}
		n++
	}
	return false
}

func (m *Meeting) otherParticipant(c *Client) *Client {
	for _, p := range m.participants {
		if p != c {
			return p
		}
	}
	return nil
}

// prepareP2P performs the Figure 2 sequence: each client exchanges STUN
// binding requests with the zone controller from the ephemeral port it
// will later use for the P2P flow, then the meeting switches.
func (m *Meeting) prepareP2P() {
	for _, c := range m.participants {
		c.p2pPort = m.w.ephemeralPort()
		c.sendSTUN()
	}
	m.w.Eng.After(m.P2PSwitchDelay, func() {
		if len(m.participants) == 2 && !m.reverted {
			m.switchToP2P()
		}
	})
}

// sendSTUN emits the binding request/response pair with the zone
// controller on UDP 3478 (cleartext, crossing the monitor for campus
// clients).
func (c *Client) sendSTUN() {
	// Several binding requests, as observed ("a series of STUN binding
	// requests").
	c.stunExchange(netip.AddrPortFrom(c.w.Opts.ZCAddr, stun.Port), c.p2pPort, 200*time.Millisecond)
}

// stunExchange sends three binding requests from the client's port to
// server, spacing apart; the server answers each with the reflexive
// address.
func (c *Client) stunExchange(server netip.AddrPort, port uint16, spacing time.Duration) {
	src := netip.AddrPortFrom(c.Addr, port)
	for i := 0; i < 3; i++ {
		c.w.Eng.After(time.Duration(i)*spacing, func() {
			tid := c.meeting.nextTransactionID()
			req := stun.NewBindingRequest(tid)
			c.toSFU.deliver(segment{src: src, dst: server, ttl: 64, payload: req.Marshal()}, func(time.Time) {
				resp := stun.NewBindingResponse(tid, src)
				c.fromSFU.deliver(segment{src: server, dst: src, ttl: 57, payload: resp.Marshal()}, nil, nil)
			}, nil)
		})
	}
}

// webrtcICEDelay is how long after the ICE STUN exchange begins that a
// webrtc-app client starts sending media (connectivity checks complete
// first; "tens to hundreds of milliseconds" in practice).
const webrtcICEDelay = 500 * time.Millisecond

// sendICESTUN performs the ICE-style connectivity check of a
// standards-RTC client: STUN binding requests from the media port to
// the media server's well-known STUN port, answered with the reflexive
// address. Crossing the monitor, this exchange is what arms the capture
// filter's endpoint table (GenericRTC mode) — the server's address
// carries no Zoom-prefix hint.
func (c *Client) sendICESTUN() {
	c.stunExchange(netip.AddrPortFrom(c.w.Opts.WebRTCAddr, stun.Port), c.mediaPort, 150*time.Millisecond)
}

// switchToP2P moves the meeting to the direct connection: both clients
// start new flows from their STUN-announced ports; all media types share
// one UDP flow (§3).
func (m *Meeting) switchToP2P() {
	m.mode = modeP2P
	for _, c := range m.participants {
		c.mediaPort = c.p2pPort
	}
}

// switchToSFU (re)establishes server relaying with fresh ephemeral
// ports.
func (m *Meeting) switchToSFU() {
	m.mode = modeSFU
	for _, c := range m.participants {
		c.mediaPort = m.w.ephemeralPort()
		c.mediaPorts = nil // fresh flows per media type
	}
}

// controlConn is the TLS-like TCP control connection every client keeps
// to a Zoom server on port 443 (§3), exercised by the paper's TCP-RTT
// method (§5.3 method 2). The simulator models periodic request/response
// exchanges with correct sequence/acknowledgment numbers; payloads are
// opaque.
type controlConn struct {
	c        *Client
	srcPort  uint16
	seq      uint32 // client's next seq
	ack      uint32 // server's next seq (what the client acks)
	stopped  bool
	interval time.Duration
}

func (c *Client) startTCPControl() {
	cc := &controlConn{
		c:        c,
		srcPort:  c.w.ephemeralPort(),
		seq:      uint32(c.rng.Int31()),
		ack:      uint32(c.rng.Int31()),
		interval: time.Second,
	}
	c.tcp = cc
	c.w.Eng.After(jitterStart(c.rng, cc.interval), cc.tick)
}

func (cc *controlConn) stop() { cc.stopped = true }

func (cc *controlConn) tick() {
	c := cc.c
	if cc.stopped || !c.active {
		return
	}
	w := c.w
	server := netip.AddrPortFrom(w.Opts.SFUAddr, 443)
	if c.meeting != nil {
		// The control connection goes to the meeting's application: a
		// webrtc-app client talks TLS to its own service, not to Zoom.
		server = netip.AddrPortFrom(c.meeting.serverAddr(), 443)
	}
	client := netip.AddrPortFrom(c.Addr, cc.srcPort)

	reqLen := 64 + c.rng.Intn(192)
	respLen := 64 + c.rng.Intn(512)
	reqSeq, reqAck := cc.seq, cc.ack
	cc.seq += uint32(reqLen)

	c.toSFU.deliver(segment{src: client, dst: server, ttl: 64, tcp: true, seq: reqSeq, ack: reqAck,
		flags: layers.TCPAck | layers.TCPPsh, payload: c.appendEncrypted(nil, reqLen)}, func(time.Time) {
		// Server response: ACK of the request plus its own data.
		respSeq := cc.ack
		cc.ack += uint32(respLen)
		c.fromSFU.deliver(segment{src: server, dst: client, ttl: 57, tcp: true, seq: respSeq, ack: cc.seq,
			flags: layers.TCPAck | layers.TCPPsh, payload: c.appendEncrypted(nil, respLen)}, func(time.Time) {
			// Client ACKs the response.
			c.toSFU.deliver(segment{src: client, dst: server, ttl: 64, tcp: true, seq: cc.seq, ack: cc.ack,
				flags: layers.TCPAck}, nil, nil)
		}, nil)
	}, nil)

	c.w.Eng.After(cc.interval, cc.tick)
}
