package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// RTCP packet types (RFC 3550 §12.1).
const (
	RTCPTypeSR   uint8 = 200
	RTCPTypeRR   uint8 = 201
	RTCPTypeSDES uint8 = 202
	RTCPTypeBye  uint8 = 203
	RTCPTypeApp  uint8 = 204
)

// ErrNotRTCP reports that a payload does not look like an RTCP packet.
var ErrNotRTCP = errors.New("rtcp: not an RTCP packet")

// NTPTime is a 64-bit NTP timestamp (seconds since 1900 in the high word,
// fraction in the low word).
type NTPTime uint64

var ntpEpoch = time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC)

// Time converts an NTP timestamp to wall-clock time.
func (n NTPTime) Time() time.Time {
	sec := uint64(n) >> 32
	frac := uint64(n) & 0xffffffff
	nsec := frac * uint64(time.Second) >> 32
	return ntpEpoch.Add(time.Duration(sec)*time.Second + time.Duration(nsec))
}

// SenderReport is an RTCP SR (RFC 3550 §6.4.1). Zoom emits one per media
// stream per second; the paper found no receiver reports in Zoom traffic
// (§4.2.1), so reception report blocks are parsed but normally empty.
type SenderReport struct {
	SSRC        uint32
	NTPTS       NTPTime
	RTPTS       uint32
	PacketCount uint32
	OctetCount  uint32
	Reports     []ReceptionReport
}

// ReceptionReport is one report block inside an SR or RR.
type ReceptionReport struct {
	SSRC             uint32
	FractionLost     uint8
	CumulativeLost   uint32 // 24-bit
	HighestSeq       uint32
	Jitter           uint32
	LastSR           uint32
	DelaySinceLastSR uint32
}

// SDESItem is one chunk of a source description packet. Zoom's SDES chunks
// are empty in practice (§4.2.3); a CNAME item is still parsed.
type SDESItem struct {
	SSRC  uint32
	CNAME string
}

// CompoundPacket is a parsed RTCP compound packet: any mix of SRs, RRs and
// SDES chunks found back to back in one UDP payload.
type CompoundPacket struct {
	SenderReports []SenderReport
	SDES          []SDESItem
	// HasBye records whether a BYE packet was present.
	HasBye bool
}

// ParseCompound parses an RTCP compound packet.
func ParseCompound(data []byte) (CompoundPacket, error) {
	var c CompoundPacket
	rest := data
	first := true
	for len(rest) > 0 {
		if len(rest) < 4 {
			return c, fmt.Errorf("%w: %d trailing bytes", ErrNotRTCP, len(rest))
		}
		b0 := rest[0]
		if b0>>6 != Version {
			return c, fmt.Errorf("%w: version %d", ErrNotRTCP, b0>>6)
		}
		count := int(b0 & 0x1f)
		ptype := rest[1]
		words := int(binary.BigEndian.Uint16(rest[2:4]))
		plen := 4 * (words + 1)
		if len(rest) < plen {
			return c, fmt.Errorf("%w: declared length %d exceeds %d", ErrNotRTCP, plen, len(rest))
		}
		body := rest[4:plen]
		switch ptype {
		case RTCPTypeSR:
			sr, err := parseSR(body, count)
			if err != nil {
				return c, err
			}
			c.SenderReports = append(c.SenderReports, sr)
		case RTCPTypeSDES:
			items, err := parseSDES(body, count)
			if err != nil {
				return c, err
			}
			c.SDES = append(c.SDES, items...)
		case RTCPTypeBye:
			c.HasBye = true
		case RTCPTypeRR, RTCPTypeApp:
			// Tolerated but not modeled: Zoom traffic contains no RRs.
		default:
			if first {
				return c, fmt.Errorf("%w: first packet type %d", ErrNotRTCP, ptype)
			}
		}
		rest = rest[plen:]
		first = false
	}
	if first {
		return c, fmt.Errorf("%w: empty payload", ErrNotRTCP)
	}
	return c, nil
}

func parseSR(body []byte, reportCount int) (SenderReport, error) {
	var sr SenderReport
	if len(body) < 24 {
		return sr, fmt.Errorf("%w: SR body %d bytes", ErrNotRTCP, len(body))
	}
	sr.SSRC = binary.BigEndian.Uint32(body[0:4])
	sr.NTPTS = NTPTime(binary.BigEndian.Uint64(body[4:12]))
	sr.RTPTS = binary.BigEndian.Uint32(body[12:16])
	sr.PacketCount = binary.BigEndian.Uint32(body[16:20])
	sr.OctetCount = binary.BigEndian.Uint32(body[20:24])
	rest := body[24:]
	if len(rest) < 24*reportCount {
		return sr, fmt.Errorf("%w: SR report blocks", ErrNotRTCP)
	}
	for i := 0; i < reportCount; i++ {
		b := rest[24*i:]
		sr.Reports = append(sr.Reports, ReceptionReport{
			SSRC:             binary.BigEndian.Uint32(b[0:4]),
			FractionLost:     b[4],
			CumulativeLost:   uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7]),
			HighestSeq:       binary.BigEndian.Uint32(b[8:12]),
			Jitter:           binary.BigEndian.Uint32(b[12:16]),
			LastSR:           binary.BigEndian.Uint32(b[16:20]),
			DelaySinceLastSR: binary.BigEndian.Uint32(b[20:24]),
		})
	}
	return sr, nil
}

func parseSDES(body []byte, chunkCount int) ([]SDESItem, error) {
	var items []SDESItem
	rest := body
	for i := 0; i < chunkCount; i++ {
		if len(rest) < 4 {
			return items, fmt.Errorf("%w: SDES chunk", ErrNotRTCP)
		}
		item := SDESItem{SSRC: binary.BigEndian.Uint32(rest[0:4])}
		rest = rest[4:]
		// Items until a zero terminator, then pad to 4 bytes.
		consumed := 0
		for len(rest) > 0 && rest[0] != 0 {
			if len(rest) < 2 {
				return items, fmt.Errorf("%w: SDES item header", ErrNotRTCP)
			}
			itemType, ln := rest[0], int(rest[1])
			if len(rest) < 2+ln {
				return items, fmt.Errorf("%w: SDES item body", ErrNotRTCP)
			}
			if itemType == 1 { // CNAME
				item.CNAME = string(rest[2 : 2+ln])
			}
			rest = rest[2+ln:]
			consumed += 2 + ln
		}
		// Skip the terminator and padding to the next 32-bit boundary.
		pad := 4 - (consumed % 4)
		if pad > len(rest) {
			pad = len(rest)
		}
		rest = rest[pad:]
		items = append(items, item)
	}
	return items, nil
}
