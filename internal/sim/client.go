package sim

import (
	"math/rand"
	"net/netip"
	"time"

	"zoomlens/internal/media"
	"zoomlens/internal/qos"
)

// MediaSet selects which media a participant sends.
type MediaSet struct {
	Video        bool
	VideoConfig  media.VideoConfig
	Audio        bool
	AudioConfig  media.AudioConfig
	Screen       bool
	ScreenConfig media.ScreenShareConfig
	// Mobile marks clients whose audio uses the PT-113 "mode unknown"
	// substream (§4.2.3).
	Mobile bool
	// FECRate is the fraction of frames that get a FEC packet (PT 110).
	FECRate float64
}

// DefaultMediaSet is a camera+microphone participant.
func DefaultMediaSet() MediaSet {
	return MediaSet{
		Video:        true,
		VideoConfig:  media.DefaultVideoConfig(),
		Audio:        true,
		AudioConfig:  media.DefaultAudioConfig(),
		ScreenConfig: media.DefaultScreenShareConfig(),
		FECRate:      0.09,
	}
}

// Client is one meeting participant endpoint.
type Client struct {
	Name   string
	Campus bool
	Addr   netip.Addr

	w     *World
	rng   *rand.Rand
	links clientLinks
	// toSFU and fromSFU are the client's paths to and from the server
	// side, built once.
	toSFU, fromSFU path

	meeting *Meeting
	set     MediaSet

	// mediaPort is the client-side UDP port of the current media flow.
	// In server mode each media type gets its own flow/port (§3: "there
	// is always one flow per media type in use"); in P2P mode all media
	// share this single port. Ports change on SFU↔P2P transitions.
	mediaPort  uint16
	mediaPorts map[Kind]uint16
	// p2pPort is the ephemeral port announced in the STUN exchange and
	// used for a subsequent P2P flow.
	p2pPort uint16

	senders []*streamSender
	recv    *receiver
	tcp     *controlConn

	// Rate-adaptation hysteresis (driven by receiver feedback).
	badSeconds  int
	goodSeconds int

	// sfuSeq numbers the Zoom SFU encapsulation for packets this client
	// sends to the server.
	sfuSeq uint16

	active bool
}

// NewClient creates a client. Campus clients sit behind the monitor.
func (w *World) NewClient(name string, campus bool) *Client {
	return w.NewClientWithAddr(name, campus, w.allocAddr(campus))
}

// NewClientWithAddr creates a client at a specific address. Giving two
// clients the same campus address models NAT (a personal hotspot or a
// large-scale NAT in front of the monitor) — the condition under which
// the grouping heuristic merges distinct meetings (Figure 9).
func (w *World) NewClientWithAddr(name string, campus bool, addr netip.Addr) *Client {
	c := &Client{
		Name:   name,
		Campus: campus,
		Addr:   addr,
		w:      w,
		rng:    rand.New(rand.NewSource(w.rng.Int63())),
	}
	c.links = w.newClientLinks(campus, c.rng.Int63())
	c.toSFU, c.fromSFU = w.pathToSFU(c), w.pathFromSFU(c)
	return c
}

// portFor returns the client-side UDP port carrying media of kind k in
// the current meeting mode.
func (c *Client) portFor(k Kind) uint16 {
	if c.meeting != nil && (c.meeting.mode == modeP2P || c.meeting.app == AppWebRTC) {
		// P2P and webrtc-app meetings bundle all media on one UDP flow
		// (WebRTC's BUNDLE: the flow the ICE STUN exchange armed).
		return c.mediaPort
	}
	if p, ok := c.mediaPorts[k]; ok {
		return p
	}
	if c.mediaPorts == nil {
		c.mediaPorts = make(map[Kind]uint16)
	}
	p := c.w.ephemeralPort()
	c.mediaPorts[k] = p
	return p
}

// flowMediaType maps a packet to the media kind whose flow carries it
// (RTCP reports ride their stream's flow).
func flowMediaType(pkt *wirePacket) Kind {
	switch pkt.h.Kind {
	case KindSR, KindSRSDES:
		return pkt.rtcpFlowKind
	case 0:
		return KindVideo // opaque control rides the busiest flow
	}
	return pkt.h.Kind
}

// DegradeAccess adds persistent extra jitter and loss to this client's
// access links (both directions) — a bad Wi-Fi or last mile affecting
// only this participant.
func (c *Client) DegradeAccess(extraJitter time.Duration, loss float64) {
	c.links.up.Jitter += extraJitter
	c.links.up.LossRate += loss
	c.links.down.Jitter += extraJitter
	c.links.down.LossRate += loss
}

// QoS returns the client's ground-truth statistics recorder (the
// SDK-instrumented view of §5 "Validation of Metrics"), or nil before
// the client joins a meeting.
func (c *Client) QoS() *qos.Recorder {
	if c.recv == nil {
		return nil
	}
	return c.recv.QoS
}

// streamSender produces one media stream (one SSRC).
type streamSender struct {
	c     *Client
	kind  Kind
	ssrc  uint32
	clock float64 // RTP clock rate

	rtpTS     uint32
	mainSeq   uint16 // RTP seq of the main substream
	fecSeq    uint16 // RTP seq of the FEC substream
	mediaSeq  uint16 // Zoom media encapsulation seq
	frameSeq  uint16 // Zoom frame sequence (video)
	pktCount  uint32 // for RTCP SR
	byteCount uint32

	video  *media.VideoSource
	audio  *media.AudioSource
	screen *media.ScreenShareSource

	// thumbnail marks user-interface-driven rate reduction (screen share
	// in the meeting); congested marks network-driven reduction.
	thumbnail bool
	congested bool
	// paused suspends emission (mute / camera off) while keeping the
	// stream's SSRC and counters, so resuming continues the same stream.
	paused bool

	// lastDur is the media time covered by the previously sent frame;
	// the RTP timestamp advances by it when the *next* frame is sampled
	// (frame i's timestamp reflects its sampling instant).
	lastDur time.Duration

	stopped bool
}

// MTU-ish payload budget per RTP packet.
const maxRTPPayload = 1150

// RTP timestamp clocks: 90 kHz for video (§5.2). The paper gives none
// for audio (§6.2); the simulator uses 16 kHz.
const (
	videoClockRate = 90000
	audioClockRate = 16000
)

// startSenders builds and schedules this client's stream senders.
func (c *Client) startSenders() {
	idx := uint32(len(c.meeting.participants)) // stable per participant
	mk := func(k Kind, streamIdx uint32, clock float64) *streamSender {
		return &streamSender{
			c:       c,
			kind:    k,
			ssrc:    c.meeting.ssrcBase + idx*8 + streamIdx,
			clock:   clock,
			rtpTS:   uint32(c.rng.Intn(1 << 20)),
			mainSeq: uint16(c.rng.Intn(1 << 14)),
			fecSeq:  uint16(c.rng.Intn(1 << 14)),
		}
	}
	if c.set.Audio {
		s := mk(KindAudio, 1, audioClockRate)
		cfg := c.set.AudioConfig
		if cfg.PacketInterval == 0 {
			cfg = media.DefaultAudioConfig()
		}
		cfg.AlwaysUnknownMode = c.set.Mobile
		s.audio = media.NewAudioSource(cfg, c.rng.Int63())
		c.senders = append(c.senders, s)
		c.w.Eng.After(jitterStart(c.rng, cfg.PacketInterval), s.tickAudio)
	}
	if c.set.Video {
		s := mk(KindVideo, 2, videoClockRate)
		cfg := c.set.VideoConfig
		if cfg.FPS == 0 {
			cfg = media.DefaultVideoConfig()
		}
		s.video = media.NewVideoSource(cfg, c.rng.Int63())
		c.senders = append(c.senders, s)
		c.w.Eng.After(jitterStart(c.rng, 33*time.Millisecond), s.tickVideo)
	}
	if c.set.Screen {
		s := mk(KindScreen, 3, videoClockRate)
		cfg := c.set.ScreenConfig
		if cfg.MeanChangeInterval == 0 {
			cfg = media.DefaultScreenShareConfig()
		}
		s.screen = media.NewScreenShareSource(cfg, c.rng.Int63())
		c.senders = append(c.senders, s)
		c.w.Eng.After(jitterStart(c.rng, 500*time.Millisecond), s.tickScreen)
	}
	// One RTCP SR per stream per second (§4.2.3), staggered.
	c.w.Eng.After(jitterStart(c.rng, time.Second), c.tickRTCP)
	// Opaque control traffic: ~1 packet/100 ms while active, giving the
	// ~10 % undecodable share of Table 2. Zoom-specific (SFU type 0x07);
	// the webrtc app has no equivalent in-band control stream here.
	if c.meeting.app == AppZoom {
		c.w.Eng.After(jitterStart(c.rng, 100*time.Millisecond), c.tickControl)
	}
}

func jitterStart(rng *rand.Rand, max time.Duration) time.Duration {
	return time.Duration(rng.Int63n(int64(max)) + 1)
}

func (s *streamSender) alive() bool {
	return !s.stopped && s.c.active
}

// SetMuted pauses/resumes the client's audio stream mid-meeting. While
// muted the participant emits no audio packets at all (they become a
// "passive participant" for that medium, §4.3.1).
func (c *Client) SetMuted(muted bool) {
	for _, s := range c.senders {
		if s.audio != nil {
			s.paused = muted
		}
	}
}

// SetVideoEnabled pauses/resumes the client's camera stream mid-meeting.
func (c *Client) SetVideoEnabled(on bool) {
	for _, s := range c.senders {
		if s.video != nil {
			s.paused = !on
		}
	}
}

func (s *streamSender) tickVideo() {
	if !s.alive() {
		return
	}
	f := s.video.Next()
	if s.paused {
		// Camera off: no packets; the RTP timeline resumes where it
		// stopped (frames simply stop being sampled).
		s.c.w.Eng.After(f.Duration, s.tickVideo)
		return
	}
	s.rtpTS += uint32(s.lastDur.Seconds() * s.clock)
	s.lastDur = f.Duration
	s.sendFrame(PTVideoMain, f.Bytes)
	s.c.w.Eng.After(f.Duration, s.tickVideo)
}

func (s *streamSender) tickAudio() {
	if !s.alive() {
		return
	}
	f := s.audio.Next()
	if s.paused {
		s.c.w.Eng.After(f.Duration, s.tickAudio)
		return
	}
	s.rtpTS += uint32(s.lastDur.Seconds() * s.clock)
	s.lastDur = f.Duration
	pt := PTAudioSpeak
	if s.c.set.Mobile {
		pt = PTAudioMobile
	} else if f.Silent {
		pt = PTAudioSilent
	}
	s.sendFrame(pt, f.Bytes)
	s.c.w.Eng.After(f.Duration, s.tickAudio)
}

func (s *streamSender) tickScreen() {
	if !s.alive() {
		return
	}
	f, gap := s.screen.Next()
	s.rtpTS += uint32(s.lastDur.Seconds() * s.clock)
	s.lastDur = gap
	s.sendFrame(PTScreenShare, f.Bytes)
	s.c.w.Eng.After(gap, s.tickScreen)
}

// sendFrame packetizes one frame and transmits its packets plus optional
// FEC.
func (s *streamSender) sendFrame(pt uint8, bytes int) {
	nPkts := (bytes + maxRTPPayload - 1) / maxRTPPayload
	if nPkts == 0 {
		nPkts = 1
	}
	s.frameSeq++
	// Packets of a frame go out back to back but still serialize on the
	// access link (~250 µs per MTU at ~40 Mbit/s); without this spacing,
	// link jitter would reorder intra-frame packets far more than real
	// networks do.
	const serialization = 250 * time.Microsecond
	for i := 0; i < nPkts; i++ {
		sz := maxRTPPayload
		if i == nPkts-1 {
			sz = bytes - maxRTPPayload*(nPkts-1)
			if sz <= 0 {
				sz = 1
			}
		}
		pkt := s.buildMediaPacket(pt, sz, i == nPkts-1, uint8(nPkts), false)
		if i == 0 {
			s.c.transmitMedia(s, pkt, 2)
		} else {
			s.c.w.Eng.After(time.Duration(i)*serialization, func() {
				s.c.transmitMedia(s, pkt, 2)
			})
		}
	}
	// FEC intensity varies by media type (Table 3: FEC ≈ 10 % of video
	// packets, ≈ 3 % of audio, and screen share carries none).
	fecRate := s.c.set.FECRate
	if s.c.meeting.app == AppWebRTC {
		// The standards app carries no separate FEC substream in this
		// model (no PT-110 equivalent; protection is in-band).
		fecRate = 0
	}
	switch s.kind {
	case KindAudio:
		fecRate *= 0.33
	case KindScreen:
		fecRate = 0
	}
	if fecRate > 0 && s.c.rng.Float64() < fecRate*float64(nPkts) {
		// FEC packets are sized like the media they protect.
		fecSize := bytes * 2 / 3
		if fecSize > maxRTPPayload {
			fecSize = maxRTPPayload
		}
		if fecSize < 30 {
			fecSize = 30
		}
		fec := s.buildMediaPacket(PTFEC, fecSize, false, 0, true)
		s.c.w.Eng.After(time.Duration(nPkts)*serialization, func() {
			s.c.transmitMedia(s, fec, 2)
		})
	}
	s.pktCount += uint32(nPkts)
	s.byteCount += uint32(bytes)
}

// wirePacket carries both the bytes and the header they were written
// from, which the receiving side reads as ground truth (it could re-parse
// the bytes, but the simulator keeps the truth attached). Only framing at
// the tap reads payload.
type wirePacket struct {
	payload []byte // UDP payload (Zoom encapsulations + RTP/RTCP)
	h       Header
	// rtcpFlowKind records, for RTCP packets, the media kind of the
	// stream they describe (which selects the carrying flow).
	rtcpFlowKind Kind
}

// Standards RTP payload types the webrtc app uses: the conventional
// Opus and VP8 dynamic mappings (both in the analyzer's known-PT maps).
const (
	webrtcPTAudio = 111
	webrtcPTVideo = 96
)

// buildWebRTCPacket emits one packet of a webrtc-app stream: a plain
// RTP header in the clear over SRTP-ciphertext payload — no Zoom
// encapsulations, one sequence space, marker bit on the last packet of
// a frame (how standards stacks delimit frames).
func (s *streamSender) buildWebRTCPacket(payloadLen int, marker bool, nPkts uint8) *wirePacket {
	s.mainSeq++
	h := Header{Layout: LayoutBare, Kind: s.kind, PT: webrtcPTVideo, Seq: s.mainSeq, Marker: marker, FramePkts: nPkts}
	if s.kind == KindAudio {
		h.PT = webrtcPTAudio
	}
	return s.rtpPacket(h, payloadLen)
}

func (s *streamSender) buildMediaPacket(pt uint8, payloadLen int, marker bool, nPkts uint8, fec bool) *wirePacket {
	if s.c.meeting.app == AppWebRTC {
		return s.buildWebRTCPacket(payloadLen, marker, nPkts)
	}
	s.mediaSeq++
	seq := &s.mainSeq
	if fec {
		seq = &s.fecSeq
	}
	*seq++
	h := Header{Kind: s.kind, MediaSeq: s.mediaSeq, MediaTS: s.rtpTS, FrameSeq: s.frameSeq, FramePkts: nPkts, PT: pt, Seq: *seq, Marker: marker}
	if s.c.meeting.mode == modeP2P {
		h.Layout = LayoutP2P
	} else {
		s.c.sfuSeq++
		h.SFUSeq = s.c.sfuSeq
	}
	return s.rtpPacket(h, payloadLen)
}

// rtpPacket completes h with the stream's RTP timestamp and SSRC and
// writes it and payloadLen bytes of ciphertext into one buffer sized for
// both.
func (s *streamSender) rtpPacket(h Header, payloadLen int) *wirePacket {
	h.TS, h.SSRC = s.rtpTS, s.ssrc
	wire := AppendHeaders(make([]byte, 0, h.Len()+payloadLen), &h)
	return &wirePacket{payload: s.c.appendEncrypted(wire, payloadLen), h: h}
}

// entropyPool is a shared block of random bytes that appendEncrypted
// slices at random offsets: each payload still looks uniformly random at
// any fixed offset across packets (what §4.2.1's analysis expects of
// ciphertext) at a fraction of the cost of per-packet rng.Read.
var entropyPool = func() []byte {
	b := make([]byte, 1<<17)
	r := rand.New(rand.NewSource(0x5eedf00d))
	r.Read(b)
	return b
}()

// appendEncrypted appends n pseudorandom bytes standing in for SRTP
// ciphertext to dst.
func (c *Client) appendEncrypted(dst []byte, n int) []byte {
	if n <= 0 {
		return dst
	}
	start := len(dst)
	for off := c.rng.Intn(len(entropyPool) - 1); len(dst)-start < n; off = 0 {
		dst = append(dst, entropyPool[off:min(len(entropyPool), off+n-(len(dst)-start))]...)
	}
	// Perturb a position so no two payloads are byte-identical.
	dst[start+c.rng.Intn(n)] ^= byte(1 + c.rng.Intn(255))
	return dst
}

// tickRTCP emits one sender report per active stream each second.
func (c *Client) tickRTCP() {
	if !c.active {
		return
	}
	for _, s := range c.senders {
		if s.stopped {
			continue
		}
		h := Header{Kind: KindSR, MediaSeq: s.mediaSeq, MediaTS: s.rtpTS, TS: s.rtpTS, SSRC: s.ssrc,
			NTP: c.w.Now(), Packets: s.pktCount, Octets: s.byteCount}
		if c.rng.Float64() < 0.7 { // most SRs carry an (empty) SDES
			h.Kind = KindSRSDES
		}
		switch {
		case c.meeting.app == AppWebRTC:
			// Standards compound RTCP: SR (+SDES), demultiplexed from RTP
			// by the RFC 5761 payload-type octet, on the bundled flow.
			h.Layout = LayoutBare
		case c.meeting.mode == modeP2P:
			h.Layout = LayoutP2P
		default:
			c.sfuSeq++
			h.SFUSeq = c.sfuSeq
		}
		c.transmitMedia(s, &wirePacket{payload: AppendHeaders(make([]byte, 0, h.Len()), &h), h: h, rtcpFlowKind: s.kind}, 0)
	}
	c.w.Eng.After(time.Second, c.tickRTCP)
}

// tickControl emits opaque (undecodable) control packets: SFU
// encapsulation type 7 followed by pseudorandom bytes. They account for
// the <10 % of packets the paper could not decode (§4.2.2).
func (c *Client) tickControl() {
	if !c.active {
		return
	}
	if c.meeting.mode != modeP2P {
		c.sfuSeq++
		h := Header{Layout: LayoutSFU, SFUType: sfuTypeControl, SFUSeq: c.sfuSeq}
		n := 40 + c.rng.Intn(80)
		payload := c.appendEncrypted(AppendHeaders(make([]byte, 0, h.Len()+n), &h), n)
		c.transmitMedia(nil, &wirePacket{payload: payload, h: h}, 0)
	}
	c.w.Eng.After(80*time.Millisecond+time.Duration(c.rng.Intn(int(80*time.Millisecond))), c.tickControl)
}

// transmitMedia addresses the packet and sends it toward the
// meeting's current destination (SFU or peer), retrying on loss up to
// `retries` times with the same RTP sequence number (§5.5).
func (c *Client) transmitMedia(s *streamSender, pkt *wirePacket, retries int) {
	if !c.active {
		return
	}
	m := c.meeting
	if m == nil {
		return
	}
	var dst netip.AddrPort
	var p *path
	var to *Client
	if p2p := pkt.h.Layout == LayoutP2P; p2p && m.mode == modeP2P {
		to = m.otherParticipant(c)
		if to == nil {
			return
		}
		dst = netip.AddrPortFrom(to.Addr, to.mediaPort)
		p = c.w.pathP2P(c, to)
	} else if !p2p && m.mode == modeSFU {
		dst = c.w.SFUAddrPort()
		if m.app == AppWebRTC {
			dst = c.w.WebRTCAddrPort()
		}
		p = &c.toSFU
	} else {
		return // packet built for a mode the meeting already left
	}
	src := netip.AddrPortFrom(c.Addr, c.portFor(flowMediaType(pkt)))
	p.deliver(segment{src: src, dst: dst, ttl: 64, payload: pkt.payload},
		func(arrive time.Time) {
			if to != nil {
				to.receiveMedia(arrive, pkt)
			} else {
				c.w.sfu.receive(arrive, c, pkt)
			}
		},
		func() {
			if retries > 0 {
				c.w.Eng.After(retxTimeout+p.rttHint, func() {
					c.retransmit(pkt, retries-1)
				})
			}
		},
	)
}

// retxTimeout is the retransmission trigger delay observed in §5.5
// ("elevated by at least the current RTT to the SFU plus a timeout that
// appears to be 100ms").
const retxTimeout = 100 * time.Millisecond

func (c *Client) retransmit(pkt *wirePacket, retries int) {
	// Retransmissions reuse identical bytes (same RTP sequence number).
	c.transmitMedia(nil, pkt, retries)
}
