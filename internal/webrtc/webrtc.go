// Package webrtc decodes standards RTP/SRTP-over-UDP as emitted by
// WebRTC-based conferencing applications (Meet, Webex, Teams, and the
// browser stacks the related work measures). Unlike Zoom, these
// applications carry no proprietary encapsulation: the UDP payload is
// the RTP (or RTCP) packet itself, with the payload encrypted (SRTP)
// but the header in the clear — exactly the situation of Sharma et al.,
// who estimate QoE from headers plus packet-size/timing heuristics.
//
// The decoder validates the RTP v2 header structurally (version bits,
// CSRC and extension length consistency, payload-type plausibility
// under the RFC 5761 RTP/RTCP demultiplexing rules) and classifies the
// media kind from the payload type and packet size: well-known audio
// payload types (static G.711/G.722/CN assignments and the conventional
// dynamic Opus mapping) are audio, conventional video mappings are
// video, and unknown dynamic payload types fall back to a size
// heuristic (audio packets are small and ptime-paced; video packets
// fill toward the MTU).
//
// Probe is deliberately conservative: on a Zoom-only trace nothing may
// be claimed as WebRTC, so a payload must survive every structural
// check before Decode is attempted. Zoom's own encapsulations always
// fail the version-bit check (their type bytes are < 0x80), so the two
// decoders never contend for the same packet.
//
// DTLS handshakes and TURN channel-data framing are NOT decoded here;
// flows using them appear as undecodable until SRTP flows directly over
// UDP (the common campus case after ICE completes).
package webrtc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"zoomlens/internal/rtp"
)

// Kind classifies the media carried by a standards RTP packet.
type Kind int

// Media kinds.
const (
	kindUnknown Kind = iota // the zero Kind: ClassifyRTP never returns it
	KindAudio
	KindVideo
	KindRTCP
)

func (k Kind) String() string {
	switch k {
	case KindAudio:
		return "audio"
	case KindVideo:
		return "video"
	case KindRTCP:
		return "rtcp"
	}
	return "unknown"
}

// AudioMaxPayload is the size-heuristic boundary for unknown dynamic
// payload types: Opus at conferencing bitrates with 10–20 ms ptime
// stays well under this, while video packets fill toward the MTU
// (Sharma et al. use the same separation).
const AudioMaxPayload = 250

// Errors returned by the decoder.
var (
	ErrNotRTP    = errors.New("webrtc: not an rtp/srtp packet")
	ErrTruncated = errors.New("webrtc: truncated packet")
)

// Packet is a decoded standards RTP or RTCP packet.
type Packet struct {
	// IsRTCP marks a compound RTCP packet (RFC 5761 demultiplexed by
	// the payload-type octet).
	IsRTCP bool
	// RTP is set when !IsRTCP. Its Payload is SRTP ciphertext plus the
	// auth tag; only the header fields are meaningful.
	RTP rtp.Packet
	// RTCP is set when IsRTCP.
	RTCP rtp.CompoundPacket
	// Kind is the inferred media kind.
	Kind Kind
}

// rtcpPTMin/rtcpPTMax bound the full second-octet values RFC 5761
// reserves for RTCP (conflict range 64–95 with the marker bit set:
// 192–223 covers SR/RR/SDES/BYE/APP/RTPFB/PSFB and the legacy FIR/NACK
// assignments).
const (
	rtcpPTMin = 192
	rtcpPTMax = 223
)

// Probe reports whether payload plausibly is a standards RTP or RTCP
// packet. It performs full structural validation of the RTP header (so
// an accepted RTP payload always parses) and claims the entire RFC 5761
// RTCP demultiplexing range: feedback packets (NACK, PLI, TWCC) belong
// to this protocol even though Parse models only SR/SDES/BYE compounds
// — they are claimed and then counted as undecodable rather than leaked
// to another plugin or misread as RTP.
func Probe(payload []byte) bool {
	if len(payload) < rtp.HeaderLen {
		return false
	}
	if payload[0]>>6 != rtp.Version {
		return false
	}
	if isRTCPOctet(payload[1]) {
		return probeRTCP(payload)
	}
	return probeRTP(payload)
}

func isRTCPOctet(b1 byte) bool { return b1 >= rtcpPTMin && b1 <= rtcpPTMax }

// probeRTP validates the RTP header structure without allocating.
func probeRTP(payload []byte) bool {
	b0 := payload[0]
	cc := int(b0 & 0x0f)
	off := rtp.HeaderLen + 4*cc
	if len(payload) < off {
		return false
	}
	if b0&0x10 != 0 { // extension
		if len(payload) < off+4 {
			return false
		}
		words := int(binary.BigEndian.Uint16(payload[off+2 : off+4]))
		off += 4 + 4*words
		if len(payload) < off {
			return false
		}
	}
	if b0&0x20 != 0 { // padding
		if len(payload) <= off {
			return false
		}
		pad := int(payload[len(payload)-1])
		if pad == 0 || pad > len(payload)-off {
			return false
		}
	}
	// SRTP media always carries ciphertext beyond the header.
	return len(payload) > off
}

// probeRTCP validates the leading RTCP header: length field consistent
// with the buffer (a compound packet may continue past it).
func probeRTCP(payload []byte) bool {
	words := int(binary.BigEndian.Uint16(payload[2:4]))
	return len(payload) >= 4*(words+1)
}

// Parse decodes a standards RTP/SRTP or RTCP payload. The returned
// packet's slices alias payload.
func Parse(payload []byte) (Packet, error) {
	var p Packet
	if len(payload) < rtp.HeaderLen {
		return p, fmt.Errorf("%w: %d bytes", ErrTruncated, len(payload))
	}
	if payload[0]>>6 != rtp.Version {
		return p, fmt.Errorf("%w: version %d", ErrNotRTP, payload[0]>>6)
	}
	if isRTCPOctet(payload[1]) {
		if !probeRTCP(payload) {
			return p, fmt.Errorf("%w: rtcp length field", ErrTruncated)
		}
		cp, err := rtp.ParseCompound(payload)
		if err != nil {
			return Packet{}, fmt.Errorf("webrtc: %w", err)
		}
		p.IsRTCP = true
		p.RTCP = cp
		p.Kind = KindRTCP
		return p, nil
	}
	if !probeRTP(payload) {
		return p, fmt.Errorf("%w: header structure", ErrNotRTP)
	}
	rp, err := rtp.Parse(payload)
	if err != nil {
		return Packet{}, fmt.Errorf("webrtc: %w", err)
	}
	p.RTP = rp
	p.Kind = ClassifyRTP(rp.PayloadType, len(rp.Payload))
	return p, nil
}

// ClassifyRTP infers the media kind of an RTP packet from its payload
// type and payload size. Known payload-type mappings win; unknown
// dynamic types fall back to the size heuristic. The classification is
// stateless and deterministic, so every packet of a substream (stable
// payload type) lands in the same stream.
func ClassifyRTP(pt uint8, payloadLen int) Kind {
	switch pt {
	case 0, 8, 9, 13, 111, 63:
		// PCMU, PCMA, G.722, comfort noise, conventional Opus, and the
		// Chrome red+opus mapping.
		return KindAudio
	case 96, 97, 98, 100, 101, 102, 127, 35, 45:
		// Conventional VP8/VP9/H.264/H.265/AV1 dynamic mappings.
		return KindVideo
	}
	if payloadLen > 0 && payloadLen <= AudioMaxPayload {
		return KindAudio
	}
	return KindVideo
}
