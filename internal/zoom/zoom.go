// Package zoom parses the proprietary Zoom packet encapsulations
// reverse-engineered in §4.2 of the paper: the 8-byte Zoom SFU
// encapsulation that prefixes server-based traffic, and the
// variable-length Zoom media encapsulation that precedes RTP or RTCP in
// both server-based and peer-to-peer traffic. Field offsets follow
// Table 1 (the constants below) and header lengths Table 2
// (MediaType.HeaderLen); PROTOCOL.md lays both out.
//
// The package is parse-only: the simulator writes these packets from its
// own transcription of the paper's tables (internal/sim/wire.go), and
// golden frames pin the parser to it byte for byte.
package zoom

import (
	"encoding/binary"
	"errors"
	"fmt"

	"zoomlens/internal/rtp"
)

// ServerMediaPort is the UDP port Zoom servers (multimedia routers) use
// for media traffic.
const ServerMediaPort = 8801

// Field offsets of Table 1, in bytes from the start of each
// encapsulation. The parser and the generated Wireshark dissector read
// them from here.
const (
	sfuSeqOff    = 1  // SFU sequence number, bytes 1-2
	sfuDirOff    = 7  // SFU direction
	mediaSeqOff  = 9  // media sequence number, bytes 9-10
	mediaTSOff   = 11 // media timestamp, bytes 11-14
	frameSeqOff  = 21 // video frame sequence number, bytes 21-22
	framePktsOff = 23 // video packets in the frame
)

// SFU encapsulation constants.
const (
	SFUEncapLen = 8
	// SFUTypeMedia marks an SFU encapsulation carrying a media
	// encapsulation (type value 5; 98.4 % of server-based packets in the
	// paper's trace).
	SFUTypeMedia = 0x05
	// DirToSFU and DirFromSFU are the observed direction byte values.
	DirToSFU   = 0x00
	DirFromSFU = 0x04
)

// MediaType is the media encapsulation type byte.
type MediaType uint8

// Media encapsulation type values (Table 2).
const (
	TypeScreenShare MediaType = 13
	TypeAudio       MediaType = 15
	TypeVideo       MediaType = 16
	TypeRTCPSR      MediaType = 33 // RTCP sender report
	TypeRTCPSRSDES  MediaType = 34 // RTCP SR + source description
)

// IsRTP reports whether the type carries an RTP media packet.
func (t MediaType) IsRTP() bool {
	return t == TypeScreenShare || t == TypeAudio || t == TypeVideo
}

// IsRTCP reports whether the type carries RTCP.
func (t MediaType) IsRTCP() bool { return t == TypeRTCPSR || t == TypeRTCPSRSDES }

// HeaderLen returns the media encapsulation header length for the type
// (the offset at which RTP/RTCP begins), or 0 for unknown types.
func (t MediaType) HeaderLen() int {
	switch t {
	case TypeVideo:
		return 24
	case TypeAudio:
		return 19
	case TypeScreenShare:
		return 27
	case TypeRTCPSR, TypeRTCPSRSDES:
		return 16
	}
	return 0
}

func (t MediaType) String() string {
	switch t {
	case TypeScreenShare:
		return "screenshare"
	case TypeAudio:
		return "audio"
	case TypeVideo:
		return "video"
	case TypeRTCPSR:
		return "rtcp-sr"
	case TypeRTCPSRSDES:
		return "rtcp-sr-sdes"
	}
	return fmt.Sprintf("unknown(%d)", uint8(t))
}

// RTP payload types observed inside Zoom streams (Table 3).
const (
	PTVideoMain   uint8 = 98  // video main stream
	PTAudioSpeak  uint8 = 112 // audio while participant is talking
	PTFEC         uint8 = 110 // forward error correction substream
	PTScreenShare uint8 = 99  // screen share main stream (also audio silent)
	PTAudioSilent uint8 = 99  // audio during silence: fixed 40-byte payload
	PTAudioMobile uint8 = 113 // audio, mode unknown (mobile clients)
)

// VideoClockRate is the RTP timestamp clock of Zoom video streams
// discovered in §5.2 (also RFC 3551's recommendation for video).
const VideoClockRate = 90000

// Errors returned by the parser.
var (
	ErrTruncated   = errors.New("zoom: truncated packet")
	ErrUnknownType = errors.New("zoom: unknown encapsulation type")
)

// SFUEncap is a decoded Zoom SFU encapsulation header.
type SFUEncap struct {
	Type      uint8
	Sequence  uint16
	Direction uint8
}

// FromSFU reports whether the direction byte marks server-to-client
// traffic.
func (s *SFUEncap) FromSFU() bool { return s.Direction == DirFromSFU }

// ParseSFUEncap decodes the 8-byte SFU encapsulation and returns the rest
// of the payload.
func ParseSFUEncap(data []byte) (SFUEncap, []byte, error) {
	var s SFUEncap
	if len(data) < SFUEncapLen {
		return s, nil, fmt.Errorf("%w: sfu encapsulation needs %d bytes, have %d", ErrTruncated, SFUEncapLen, len(data))
	}
	s.Type = data[0]
	s.Sequence = binary.BigEndian.Uint16(data[sfuSeqOff:])
	s.Direction = data[sfuDirOff]
	return s, data[SFUEncapLen:], nil
}

// MediaEncap is a decoded Zoom media encapsulation header.
type MediaEncap struct {
	Type      MediaType
	Sequence  uint16
	Timestamp uint32
	// FrameSequence and PacketsInFrame are only meaningful for video
	// (Type == TypeVideo).
	FrameSequence  uint16
	PacketsInFrame uint8
}

// ParseMediaEncap decodes a media encapsulation header and returns the
// encapsulated payload (RTP or RTCP).
func ParseMediaEncap(data []byte) (MediaEncap, []byte, error) {
	var m MediaEncap
	if len(data) < 1 {
		return m, nil, fmt.Errorf("%w: empty media encapsulation", ErrTruncated)
	}
	m.Type = MediaType(data[0])
	hl := m.Type.HeaderLen()
	if hl == 0 {
		return m, nil, fmt.Errorf("%w: media type %d", ErrUnknownType, data[0])
	}
	if len(data) < hl {
		return m, nil, fmt.Errorf("%w: media encapsulation type %s needs %d bytes, have %d", ErrTruncated, m.Type, hl, len(data))
	}
	m.Sequence = binary.BigEndian.Uint16(data[mediaSeqOff:])
	m.Timestamp = binary.BigEndian.Uint32(data[mediaTSOff:])
	if m.Type == TypeVideo {
		m.FrameSequence = binary.BigEndian.Uint16(data[frameSeqOff:])
		m.PacketsInFrame = data[framePktsOff]
	}
	return m, data[hl:], nil
}

// Packet is a fully parsed Zoom UDP payload.
type Packet struct {
	// ServerBased reports whether an SFU encapsulation was present.
	ServerBased bool
	SFU         SFUEncap
	Media       MediaEncap
	// RTP is set for media types 13/15/16.
	RTP rtp.Packet
	// RTCP is set for media types 33/34.
	RTCP rtp.CompoundPacket
}

// IsMedia reports whether the packet carries an RTP media payload.
func (p *Packet) IsMedia() bool { return p.Media.Type.IsRTP() }

// Mode distinguishes server-based from peer-to-peer payload layouts.
type Mode int

// Payload layout modes.
const (
	// ModeAuto tries server-based first, then P2P.
	ModeAuto Mode = iota
	// ModeServer expects an SFU encapsulation first.
	ModeServer
	// ModeP2P expects a media encapsulation immediately.
	ModeP2P
)

// ParsePacket decodes a Zoom UDP payload. In ModeAuto it accepts both
// layouts, preferring the server-based interpretation when the first byte
// is the SFU media type marker and the inner parse succeeds.
func ParsePacket(payload []byte, mode Mode) (Packet, error) {
	var p Packet
	err := p.Parse(payload, mode)
	return p, err
}

// Parse is ParsePacket in place: it decodes payload into p, whatever p
// held before, so a caller with one long-lived Packet parses without
// copying one. On error p is the zero Packet.
func (p *Packet) Parse(payload []byte, mode Mode) error {
	var err error
	switch mode {
	case ModeServer:
		err = p.parseServer(payload)
	case ModeP2P:
		err = p.parseInner(payload)
	default:
		if len(payload) > 0 && payload[0] == SFUTypeMedia && p.parseServer(payload) == nil {
			return nil
		}
		if p.parseInner(payload) == nil {
			return nil
		}
		// Neither layout fits; report why the server-based one does not.
		err = p.parseServer(payload)
	}
	if err != nil {
		*p = Packet{}
	}
	return err
}

// parseServer decodes an SFU encapsulation and what it carries. Like
// parseInner it writes every field of p on success and leaves p partly
// written on error.
func (p *Packet) parseServer(payload []byte) error {
	sfu, rest, err := ParseSFUEncap(payload)
	if err != nil {
		return err
	}
	if sfu.Type != SFUTypeMedia {
		return fmt.Errorf("%w: sfu type %d", ErrUnknownType, sfu.Type)
	}
	if err := p.parseInner(rest); err != nil {
		return err
	}
	p.ServerBased, p.SFU = true, sfu
	return nil
}

// parseInner decodes a media encapsulation and its RTP or RTCP body as a
// peer-to-peer packet.
func (p *Packet) parseInner(data []byte) error {
	media, rest, err := ParseMediaEncap(data)
	if err != nil {
		return err
	}
	// A media type with a header length is one or the other.
	if media.Type.IsRTP() {
		if err := p.RTP.Parse(rest); err != nil {
			return fmt.Errorf("zoom: media type %s: %w", media.Type, err)
		}
		p.RTCP = rtp.CompoundPacket{}
	} else {
		cp, err := rtp.ParseCompound(rest)
		if err != nil {
			return fmt.Errorf("zoom: media type %s: %w", media.Type, err)
		}
		p.RTP, p.RTCP = rtp.Packet{}, cp
	}
	p.ServerBased, p.SFU, p.Media = false, SFUEncap{}, media
	return nil
}
