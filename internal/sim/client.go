package sim

import (
	"math/rand"
	"net/netip"
	"time"

	"zoomlens/internal/media"
	"zoomlens/internal/qos"
	"zoomlens/internal/rtp"
	"zoomlens/internal/zoom"
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
	mediaPorts map[zoom.MediaType]uint16
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

// portFor returns the client-side UDP port carrying mt in the current
// meeting mode.
func (c *Client) portFor(mt zoom.MediaType) uint16 {
	if c.meeting != nil && (c.meeting.mode == modeP2P || c.meeting.app == AppWebRTC) {
		// P2P and webrtc-app meetings bundle all media on one UDP flow
		// (WebRTC's BUNDLE: the flow the ICE STUN exchange armed).
		return c.mediaPort
	}
	if p, ok := c.mediaPorts[mt]; ok {
		return p
	}
	if c.mediaPorts == nil {
		c.mediaPorts = make(map[zoom.MediaType]uint16)
	}
	p := c.w.ephemeralPort()
	c.mediaPorts[mt] = p
	return p
}

// flowMediaType maps a packet to the media type whose flow carries it
// (RTCP reports ride their stream's flow).
func flowMediaType(pkt *wirePacket) zoom.MediaType {
	switch pkt.mediaType {
	case zoom.TypeRTCPSR, zoom.TypeRTCPSRSDES:
		return pkt.rtcpFlowType
	case 0:
		return zoom.TypeVideo // opaque control rides the busiest flow
	}
	return pkt.mediaType
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
	c         *Client
	mediaType zoom.MediaType
	ssrc      uint32
	clock     float64 // RTP clock rate

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

// startSenders builds and schedules this client's stream senders.
func (c *Client) startSenders() {
	idx := uint32(len(c.meeting.participants)) // stable per participant
	mk := func(mt zoom.MediaType, streamIdx uint32, clock float64) *streamSender {
		return &streamSender{
			c:         c,
			mediaType: mt,
			ssrc:      c.meeting.ssrcBase + idx*8 + streamIdx,
			clock:     clock,
			rtpTS:     uint32(c.rng.Intn(1 << 20)),
			mainSeq:   uint16(c.rng.Intn(1 << 14)),
			fecSeq:    uint16(c.rng.Intn(1 << 14)),
		}
	}
	if c.set.Audio {
		s := mk(zoom.TypeAudio, 1, zoom.AudioClockRate)
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
		s := mk(zoom.TypeVideo, 2, zoom.VideoClockRate)
		cfg := c.set.VideoConfig
		if cfg.FPS == 0 {
			cfg = media.DefaultVideoConfig()
		}
		s.video = media.NewVideoSource(cfg, c.rng.Int63())
		c.senders = append(c.senders, s)
		c.w.Eng.After(jitterStart(c.rng, 33*time.Millisecond), s.tickVideo)
	}
	if c.set.Screen {
		s := mk(zoom.TypeScreenShare, 3, zoom.VideoClockRate)
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
	s.sendFrame(zoom.PTVideoMain, f.Bytes, true)
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
	pt := zoom.PTAudioSpeak
	if s.c.set.Mobile {
		pt = zoom.PTAudioMobile
	} else if f.Silent {
		pt = zoom.PTAudioSilent
	}
	s.sendFrame(pt, f.Bytes, false)
	s.c.w.Eng.After(f.Duration, s.tickAudio)
}

func (s *streamSender) tickScreen() {
	if !s.alive() {
		return
	}
	f, gap := s.screen.Next()
	s.rtpTS += uint32(s.lastDur.Seconds() * s.clock)
	s.lastDur = gap
	s.sendFrame(zoom.PTScreenShare, f.Bytes, false)
	s.c.w.Eng.After(gap, s.tickScreen)
}

// sendFrame packetizes one frame and transmits its packets plus optional
// FEC. hasCount marks media types whose encapsulation carries the
// packets-in-frame field (video).
func (s *streamSender) sendFrame(pt uint8, bytes int, hasCount bool) {
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
		pkt := s.buildMediaPacket(pt, sz, i == nPkts-1, uint8(nPkts), hasCount, false)
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
	switch s.mediaType {
	case zoom.TypeAudio:
		fecRate *= 0.33
	case zoom.TypeScreenShare:
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
		fec := s.buildMediaPacket(zoom.PTFEC, fecSize, false, 0, hasCount, true)
		s.c.w.Eng.After(time.Duration(nPkts)*serialization, func() {
			s.c.transmitMedia(s, fec, 2)
		})
	}
	s.pktCount += uint32(nPkts)
	s.byteCount += uint32(bytes)
}

// wirePacket carries both the bytes and the metadata the receiving side
// needs (the receiver could re-parse, but the simulator keeps ground
// truth attached). Only framing at the tap reads payload.
type wirePacket struct {
	payload   []byte // UDP payload (Zoom encapsulations + RTP/RTCP)
	mediaType zoom.MediaType
	pt        uint8
	ssrc      uint32
	rtpSeq    uint16
	rtpTS     uint32
	marker    bool
	frameSeq  uint16
	nPkts     uint8
	sender    *Client
	// rtcpFlowType records, for RTCP packets, the media type of the
	// stream they describe (which selects the carrying flow).
	rtcpFlowType zoom.MediaType
	// p2p is set for P2P packets (no SFU encapsulation).
	p2p bool
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
	pt := uint8(webrtcPTVideo)
	if s.mediaType == zoom.TypeAudio {
		pt = webrtcPTAudio
	}
	return s.rtpPacket(make([]byte, 0, rtp.HeaderLen+payloadLen), pt, s.mainSeq, payloadLen, marker, nPkts, false)
}

func (s *streamSender) buildMediaPacket(pt uint8, payloadLen int, marker bool, nPkts uint8, hasCount, fec bool) *wirePacket {
	if s.c.meeting.app == AppWebRTC {
		return s.buildWebRTCPacket(payloadLen, marker, nPkts)
	}
	s.mediaSeq++
	seq := &s.mainSeq
	if fec {
		seq = &s.fecSeq
	}
	*seq++
	p2p := s.c.meeting.mode == modeP2P
	media := zoom.MediaEncap{Type: s.mediaType, Sequence: s.mediaSeq, Timestamp: s.rtpTS}
	if hasCount && s.mediaType == zoom.TypeVideo {
		media.FrameSequence = s.frameSeq
		media.PacketsInFrame = nPkts
	}
	wire := make([]byte, 0, zoom.SFUEncapLen+s.mediaType.HeaderLen()+rtp.HeaderLen+payloadLen)
	if !p2p {
		s.c.sfuSeq++
		sfuHdr := zoom.SFUEncap{Type: zoom.SFUTypeMedia, Sequence: s.c.sfuSeq, Direction: zoom.DirToSFU}
		wire = sfuHdr.AppendMarshal(wire)
	}
	wire, err := media.AppendMarshal(wire)
	if err != nil {
		panic("sim: marshal media packet: " + err.Error())
	}
	return s.rtpPacket(wire, pt, *seq, payloadLen, marker, nPkts, p2p)
}

// rtpPacket appends an RTP header and payloadLen bytes of ciphertext to
// wire, which the caller sized for them, and attaches the packet's
// ground truth.
func (s *streamSender) rtpPacket(wire []byte, pt uint8, seq uint16, payloadLen int, marker bool, nPkts uint8, p2p bool) *wirePacket {
	hdr := rtp.Packet{Header: rtp.Header{
		PayloadType:    pt,
		SequenceNumber: seq,
		Timestamp:      s.rtpTS,
		SSRC:           s.ssrc,
		Marker:         marker,
	}}
	wire, err := hdr.AppendMarshal(wire)
	if err != nil {
		panic("sim: marshal rtp header: " + err.Error())
	}
	return &wirePacket{
		payload:   s.c.appendEncrypted(wire, payloadLen),
		mediaType: s.mediaType,
		pt:        pt,
		ssrc:      s.ssrc,
		rtpSeq:    seq,
		rtpTS:     s.rtpTS,
		marker:    marker,
		frameSeq:  s.frameSeq,
		nPkts:     nPkts,
		sender:    s.c,
		p2p:       p2p,
	}
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
		withSDES := c.rng.Float64() < 0.7 // most SRs carry an (empty) SDES
		if c.meeting.app == AppWebRTC {
			// Standards compound RTCP: SR (+SDES), demultiplexed from RTP
			// by the RFC 5761 payload-type octet, on the bundled flow.
			wire := rtp.MarshalSR(rtp.SenderReport{
				SSRC:        s.ssrc,
				NTPTS:       rtp.NTPFromTime(c.w.Now()),
				RTPTS:       s.rtpTS,
				PacketCount: s.pktCount,
				OctetCount:  s.byteCount,
			}, withSDES)
			c.transmitMedia(s, &wirePacket{
				payload: wire, mediaType: zoom.TypeRTCPSR, ssrc: s.ssrc, sender: c,
				rtcpFlowType: s.mediaType,
			}, 0)
			continue
		}
		mt := zoom.TypeRTCPSR
		if withSDES {
			mt = zoom.TypeRTCPSRSDES
		}
		p2p := c.meeting.mode == modeP2P
		zp := zoom.Packet{
			ServerBased: !p2p,
			Media:       zoom.MediaEncap{Type: mt, Sequence: s.mediaSeq, Timestamp: s.rtpTS},
			RTCP: rtp.CompoundPacket{SenderReports: []rtp.SenderReport{{
				SSRC:        s.ssrc,
				NTPTS:       rtp.NTPFromTime(c.w.Now()),
				RTPTS:       s.rtpTS,
				PacketCount: s.pktCount,
				OctetCount:  s.byteCount,
			}}},
		}
		if !p2p {
			c.sfuSeq++
			zp.SFU = zoom.SFUEncap{Type: zoom.SFUTypeMedia, Sequence: c.sfuSeq, Direction: zoom.DirToSFU}
		}
		wire, err := zp.Marshal()
		if err != nil {
			panic("sim: marshal rtcp: " + err.Error())
		}
		c.transmitMedia(s, &wirePacket{
			payload: wire, mediaType: mt, ssrc: s.ssrc, sender: c, p2p: p2p,
			rtcpFlowType: s.mediaType,
		}, 0)
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
		hdr := zoom.SFUEncap{Type: 0x07, Sequence: c.sfuSeq, Direction: zoom.DirToSFU}
		n := 40 + c.rng.Intn(80)
		payload := c.appendEncrypted(hdr.AppendMarshal(make([]byte, 0, zoom.SFUEncapLen+n)), n)
		c.transmitMedia(nil, &wirePacket{payload: payload, sender: c, mediaType: 0}, 0)
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
	if pkt.p2p && m.mode == modeP2P {
		to = m.otherParticipant(c)
		if to == nil {
			return
		}
		dst = netip.AddrPortFrom(to.Addr, to.mediaPort)
		p = c.w.pathP2P(c, to)
	} else if !pkt.p2p && m.mode == modeSFU {
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
