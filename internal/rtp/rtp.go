// Package rtp implements the Real-time Transport Protocol (RFC 3550)
// header parser together with the sequence-number and timestamp arithmetic
// needed to analyze media streams: serial-number comparison, the extended
// highest-sequence bookkeeping from RFC 3550 Appendix A.1, and the
// interarrival jitter estimator from §6.4.1.
//
// Zoom embeds standard RTP inside its proprietary encapsulations; this
// package knows nothing about Zoom and is reusable for any RTP-bearing
// application (the paper notes the same techniques apply to Meet, Teams,
// Webex, and FaceTime).
package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the only RTP version in use.
const Version = 2

// HeaderLen is the length of a fixed RTP header without CSRCs or
// extensions.
const HeaderLen = 12

// Errors returned by the parser.
var (
	ErrTruncated  = errors.New("rtp: truncated packet")
	ErrBadVersion = errors.New("rtp: bad version")
)

// Header is a decoded RTP header.
type Header struct {
	Padding        bool
	Marker         bool
	PayloadType    uint8
	SequenceNumber uint16
	Timestamp      uint32
	SSRC           uint32
	CSRC           []uint32
	// Extension holds the profile-defined extension header if the X bit
	// was set: the 16-bit profile identifier and the extension words.
	Extension        bool
	ExtensionProfile uint16
	ExtensionData    []byte // always a multiple of 4 bytes
}

// Packet is a decoded RTP packet: header plus payload. Payload aliases the
// input buffer passed to Parse.
type Packet struct {
	Header
	Payload []byte
}

// Parse decodes an RTP packet from data. The returned packet's Payload and
// ExtensionData alias data.
func Parse(data []byte) (Packet, error) {
	var p Packet
	if err := p.Parse(data); err != nil {
		return Packet{}, err
	}
	return p, nil
}

// Parse decodes an RTP packet from data into p, whatever p held: on
// success every field is the packet's, Payload and ExtensionData
// aliasing data; on error p is partly written and must not be read.
func (p *Packet) Parse(data []byte) error {
	if len(data) < HeaderLen {
		return fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, HeaderLen, len(data))
	}
	b0 := data[0]
	if v := b0 >> 6; v != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	p.Padding = b0&0x20 != 0
	ext := b0&0x10 != 0
	cc := int(b0 & 0x0f)
	b1 := data[1]
	p.Marker = b1&0x80 != 0
	p.PayloadType = b1 & 0x7f
	p.SequenceNumber = binary.BigEndian.Uint16(data[2:4])
	p.Timestamp = binary.BigEndian.Uint32(data[4:8])
	p.SSRC = binary.BigEndian.Uint32(data[8:12])
	off := HeaderLen
	if cc > 0 {
		if len(data) < off+4*cc {
			return fmt.Errorf("%w: csrc list", ErrTruncated)
		}
		p.CSRC = make([]uint32, cc)
		for i := range p.CSRC {
			p.CSRC[i] = binary.BigEndian.Uint32(data[off : off+4])
			off += 4
		}
	} else {
		p.CSRC = nil
	}
	p.Extension = ext
	p.ExtensionProfile = 0
	p.ExtensionData = nil
	if ext {
		if len(data) < off+4 {
			return fmt.Errorf("%w: extension header", ErrTruncated)
		}
		p.ExtensionProfile = binary.BigEndian.Uint16(data[off : off+2])
		words := int(binary.BigEndian.Uint16(data[off+2 : off+4]))
		off += 4
		if len(data) < off+4*words {
			return fmt.Errorf("%w: extension body", ErrTruncated)
		}
		p.ExtensionData = data[off : off+4*words]
		off += 4 * words
	}
	payload := data[off:]
	if p.Padding {
		if len(payload) == 0 {
			return fmt.Errorf("%w: padding with empty payload", ErrTruncated)
		}
		pad := int(payload[len(payload)-1])
		if pad == 0 || pad > len(payload) {
			return fmt.Errorf("rtp: invalid padding length %d", pad)
		}
		payload = payload[:len(payload)-pad]
	}
	p.Payload = payload
	return nil
}

// SeqDiff returns the signed distance from a to b (b-a) interpreting the
// 16-bit values as serial numbers: positive when b is ahead of a.
func SeqDiff(a, b uint16) int {
	d := int16(b - a)
	return int(d)
}

// TSDiff returns the signed distance from timestamp a to b (b-a) in 32-bit
// serial arithmetic.
func TSDiff(a, b uint32) int64 {
	d := int32(b - a)
	return int64(d)
}

// SeqTracker maintains the extended (wraparound-corrected) sequence number
// state of one RTP substream, following RFC 3550 Appendix A.1, and counts
// duplicates, reorderings, and gaps. The Zoom paper (§5.5) relies on this
// analysis to estimate loss and retransmissions, noting that Zoom
// retransmits with the *same* sequence number, so duplicates usually mean
// retransmission.
//
// A packet within seqWindow of the highest sequence number seen is a
// duplicate exactly when its number was received before; one further
// behind counts as reordered (the tracker cannot tell). The zero value
// is an empty tracker.
type SeqTracker struct {
	started  bool
	maxSeq   uint16
	cycles   uint32 // count of wraps, shifted into the high 16 bits
	received uint64
	dups     uint64
	reorder  uint64
	baseExt  uint32

	// seen has one bit per sequence number in (maxSeq-seqWindow, maxSeq],
	// at position seq%seqWindow (seqWindow divides 65,536, so positions
	// carry across the 16-bit wrap); advancing maxSeq clears what it passes.
	seen [seqWindow / 64]uint64
}

// seqWindow is how far behind the highest a duplicate is still recognized.
const seqWindow = 1024

// NewSeqTracker returns an empty tracker.
func NewSeqTracker() *SeqTracker { return new(SeqTracker) }

// Observe records seq and classifies it. kind describes the packet's
// relationship to the stream so far.
func (t *SeqTracker) Observe(seq uint16) SeqKind {
	word, bit := &t.seen[seq%seqWindow/64], uint64(1)<<(seq%64)
	if !t.started {
		t.started, t.maxSeq, t.baseExt, t.received = true, seq, uint32(seq), 1
		*word |= bit
		return SeqInOrder
	}
	t.received++
	d := SeqDiff(t.maxSeq, seq)
	if d > 0 {
		if d >= seqWindow {
			t.seen = [seqWindow / 64]uint64{}
		} else {
			for s := t.maxSeq + 1; s != seq; s++ {
				t.seen[s%seqWindow/64] &^= 1 << (s % 64)
			}
		}
		*word |= bit
		if seq < t.maxSeq { // wrapped
			t.cycles += 1 << 16
		}
		t.maxSeq = seq
		if d == 1 {
			return SeqInOrder
		}
		return SeqGap
	}
	if d > -seqWindow {
		if *word&bit != 0 {
			t.dups++
			return SeqDuplicate
		}
		*word |= bit
	}
	t.reorder++
	return SeqReordered
}

// SeqKind classifies an observed sequence number.
type SeqKind int

// Classification of an observed packet relative to the stream so far.
const (
	SeqInOrder   SeqKind = iota
	SeqGap               // jumped forward, skipping at least one number
	SeqDuplicate         // already seen (likely a Zoom retransmission)
	SeqReordered         // behind the maximum but not previously seen
)

func (k SeqKind) String() string {
	switch k {
	case SeqInOrder:
		return "in-order"
	case SeqGap:
		return "gap"
	case SeqDuplicate:
		return "duplicate"
	case SeqReordered:
		return "reordered"
	}
	return "unknown"
}

// Stats summarizes a tracker.
type Stats struct {
	Received   uint64
	Duplicates uint64
	Reordered  uint64
	// ExpectedSpan is the count of sequence numbers covered from the first
	// to the highest observed, inclusive.
	ExpectedSpan uint64
	// EstimatedLost is ExpectedSpan minus unique packets received (never
	// negative). Because Zoom retransmits with identical sequence numbers,
	// this is a lower bound on true network loss (§5.5).
	EstimatedLost uint64
}

// Stats returns the current counters.
func (t *SeqTracker) Stats() Stats {
	if !t.started {
		return Stats{}
	}
	highest := uint64(t.cycles) | uint64(t.maxSeq)
	span := highest - uint64(t.baseExt) + 1
	unique := t.received - t.dups
	var lost uint64
	if span > unique {
		lost = span - unique
	}
	return Stats{
		Received:      t.received,
		Duplicates:    t.dups,
		Reordered:     t.reorder,
		ExpectedSpan:  span,
		EstimatedLost: lost,
	}
}

// Jitter implements the RFC 3550 §6.4.1 interarrival jitter estimator:
//
//	D(i,j) = (Rj − Ri) − (Sj − Si)
//	J     += (|D| − J) / 16
//
// where R is arrival time and S is the RTP timestamp, both expressed in
// timestamp units. The Zoom paper applies this at frame granularity with
// variable packetization intervals (§5.4); callers feed it one sample per
// frame (first packet of each frame).
type Jitter struct {
	clockRate float64 // Hz
	started   bool
	prevR     float64 // arrival, seconds
	prevS     uint32  // RTP timestamp
	j         float64 // jitter in timestamp units
}

// NewJitter returns an estimator for a stream with the given RTP clock
// rate in Hz (90000 for Zoom video).
func NewJitter(clockRate float64) *Jitter {
	if clockRate <= 0 {
		panic("rtp: clock rate must be positive")
	}
	return &Jitter{clockRate: clockRate}
}

// Observe feeds one (arrival time, RTP timestamp) pair. arrival is in
// seconds of wall-clock time. It returns the updated jitter estimate in
// seconds.
func (j *Jitter) Observe(arrival float64, ts uint32) float64 {
	if !j.started {
		j.started = true
		j.prevR, j.prevS = arrival, ts
		return 0
	}
	dR := (arrival - j.prevR) * j.clockRate
	dS := float64(TSDiff(j.prevS, ts))
	d := dR - dS
	if d < 0 {
		d = -d
	}
	j.j += (d - j.j) / 16
	j.prevR, j.prevS = arrival, ts
	return j.Seconds()
}

// Seconds returns the current jitter estimate in seconds.
func (j *Jitter) Seconds() float64 { return j.j / j.clockRate }
