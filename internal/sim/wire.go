package sim

// The Zoom wire format as the simulator writes it: its own transcription
// of §4.2 of the paper (the header fields of Table 1, the type values of
// Table 2, the payload types of Table 3 and the encapsulation stack of
// Fig. 7), plus the RFC 3550 RTP header and the sender report (+ empty
// SDES) Zoom's RTCP carries. AppendHeaders frames every generated packet
// from these rows. The analyzer's parser (internal/zoom, internal/rtp) is
// written separately; golden frames pin the two to each other, so an
// offset misread from the paper is a disagreement, not a shared mistake.

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Kind is a media encapsulation type: the type byte of Table 2. Zero
// marks a packet with no media kind (opaque control traffic).
type Kind uint8

// The type values of Table 2.
const (
	KindScreen Kind = 13 // RTP screen share
	KindAudio  Kind = 15 // RTP audio
	KindVideo  Kind = 16 // RTP video
	KindSR     Kind = 33 // RTCP sender report
	KindSRSDES Kind = 34 // RTCP sender report + SDES
)

// MediaHeaderLens transcribes Table 2's offsets: by type, where RTP or
// RTCP begins, counted from the start of the media encapsulation (and so
// the media encapsulation's length). Zero for a type Table 2 lacks.
var MediaHeaderLens = [...]int{KindScreen: 27, KindAudio: 19, KindVideo: 24, KindSR: 16, KindSRSDES: 16}

// RTP payload types of Zoom's substreams (Table 3).
const (
	PTVideoMain   uint8 = 98  // video main stream
	PTScreenShare uint8 = 99  // screen share main stream
	PTAudioSilent uint8 = 99  // audio in silent mode: fixed 40-byte payloads
	PTFEC         uint8 = 110 // forward error correction, video and audio
	PTAudioSpeak  uint8 = 112 // audio while the participant talks
	PTAudioMobile uint8 = 113 // audio, mode unknown (mobile clients)
)

// SFU encapsulation values (Table 1). Type 0x07 marks the opaque control
// packets the paper could not decode (§4.2.2).
const (
	SFUTypeMedia   = 0x05
	sfuTypeControl = 0x07
	dirToSFU       = 0x00
	dirFromSFU     = 0x04
)

// A Field is one row of the transcription: where a header field sits in
// its encapsulation, its source row, and what the simulator writes there.
type Field struct {
	Name, Comment, Source string
	Offset, Width         int  // bytes from the start of the encapsulation; big endian
	Video                 bool // written in video packets only
	value                 fieldValue
	fixed                 uint64 // what a row of value valFixed writes
}

// fieldValue names the Header field a row writes.
type fieldValue uint8

const (
	valFixed fieldValue = iota
	valSFUType
	valSFUSeq
	valDirection
	valKind
	valMediaSeq
	valMediaTS
	valFrameSeq
	valFramePkts
	valMarkerPT
	valSeq
	valTS
	valSSRC
	valNTP
	valPackets
	valOctets
)

// An Encapsulation is one layer of the stack, Len bytes long (0 for the
// media encapsulation, whose length its type gives). Bytes no row covers
// are written zero: what the paper leaves undecoded, and the SDES
// chunk's empty item list.
type Encapsulation struct {
	Name   string
	Len    int
	Fields []Field
}

// The transcription.
var (
	SFUEncapsulation = Encapsulation{"Zoom SFU Encapsulation", 8, []Field{
		{Name: "Type", Offset: 0, Width: 1, Source: "Table 1", Comment: fmt.Sprintf("0x%02x indicates media encapsulation follows", SFUTypeMedia), value: valSFUType},
		{Name: "Sequence #", Offset: 1, Width: 2, Source: "Table 1", value: valSFUSeq},
		{Name: "Direction", Offset: 7, Width: 1, Source: "Table 1", Comment: fmt.Sprintf("0x%02x/0x%02x - to/from SFU", dirToSFU, dirFromSFU), value: valDirection},
	}}
	MediaEncapsulation = Encapsulation{"Zoom Media Encapsulation", 0, []Field{
		{Name: "Type", Offset: 0, Width: 1, Source: "Table 1, values Table 2", Comment: "media type or RTCP", value: valKind},
		{Name: "Sequence #", Offset: 9, Width: 2, Source: "Table 1", value: valMediaSeq},
		{Name: "Timestamp", Offset: 11, Width: 4, Source: "Table 1", value: valMediaTS},
		{Name: "Frame seq. #", Offset: 21, Width: 2, Video: true, Source: "Table 1", Comment: "only in video packets", value: valFrameSeq},
		{Name: "# Packets/frame", Offset: 23, Width: 1, Video: true, Source: "Table 1", Comment: "only in video packets", value: valFramePkts},
	}}
	RTPHeader = Encapsulation{"RTP fixed header", 12, []Field{
		{Name: "V=2, P, X, CC=0", Offset: 0, Width: 1, Source: "RFC 3550 §5.1", Comment: "no CSRC: the SFU does not mix (§4.2.3)", fixed: 0x80},
		{Name: "M, PT", Offset: 1, Width: 1, Source: "RFC 3550 §5.1", Comment: "payload types of Table 3", value: valMarkerPT},
		{Name: "Sequence number", Offset: 2, Width: 2, Source: "RFC 3550 §5.1", value: valSeq},
		{Name: "Timestamp", Offset: 4, Width: 4, Source: "RFC 3550 §5.1", value: valTS},
		{Name: "SSRC", Offset: 8, Width: 4, Source: "RFC 3550 §5.1", value: valSSRC},
	}}
	SenderReport = Encapsulation{"RTCP Sender Report", 28, []Field{
		{Name: "V=2, P, RC=0", Offset: 0, Width: 1, Source: "RFC 3550 §6.4.1", Comment: "Zoom sends no reception reports (§4.2.1)", fixed: 0x80},
		{Name: "PT=SR", Offset: 1, Width: 1, Source: "RFC 3550 §6.4.1", fixed: 200},
		{Name: "Length", Offset: 2, Width: 2, Source: "RFC 3550 §6.4.1", Comment: "32-bit words, minus one", fixed: 6},
		{Name: "SSRC of sender", Offset: 4, Width: 4, Source: "RFC 3550 §6.4.1", value: valSSRC},
		{Name: "NTP timestamp", Offset: 8, Width: 8, Source: "RFC 3550 §6.4.1", value: valNTP},
		{Name: "RTP timestamp", Offset: 16, Width: 4, Source: "RFC 3550 §6.4.1", value: valTS},
		{Name: "Sender's packet count", Offset: 20, Width: 4, Source: "RFC 3550 §6.4.1", value: valPackets},
		{Name: "Sender's octet count", Offset: 24, Width: 4, Source: "RFC 3550 §6.4.1", value: valOctets},
	}}
	SDES = Encapsulation{"RTCP Source Description", 12, []Field{
		{Name: "V=2, P, SC=1", Offset: 0, Width: 1, Source: "RFC 3550 §6.5", Comment: "one chunk, with no items (§4.2.3)", fixed: 0x81},
		{Name: "PT=SDES", Offset: 1, Width: 1, Source: "RFC 3550 §6.5", fixed: 202},
		{Name: "Length", Offset: 2, Width: 2, Source: "RFC 3550 §6.5", Comment: "32-bit words, minus one", fixed: 2},
		{Name: "SSRC", Offset: 4, Width: 4, Source: "RFC 3550 §6.5", value: valSSRC},
	}}
)

// Layout selects the encapsulations a packet stacks (Fig. 7).
type Layout uint8

const (
	LayoutServer Layout = iota // SFU encapsulation (type SFUTypeMedia), media encapsulation, RTP or RTCP
	LayoutP2P                  // media encapsulation, RTP or RTCP
	LayoutBare                 // RTP or RTCP alone: the standards-RTC app
	LayoutSFU                  // SFU encapsulation of type SFUType alone; the caller appends what it carries
)

// Header is one packet's cleartext: what AppendHeaders writes into the
// rows of the encapsulations its Layout and Kind select. An RTCP kind
// writes a sender report (followed by an empty SDES for KindSRSDES), any
// other kind an RTP header. Kind must be zero or one of Table 2's, and
// one of Table 2's under a media encapsulation.
type Header struct {
	Layout  Layout
	Kind    Kind
	SFUType uint8 // LayoutSFU only
	SFUSeq  uint16
	FromSFU bool

	MediaSeq  uint16
	MediaTS   uint32
	FrameSeq  uint16
	FramePkts uint8

	PT     uint8
	Marker bool
	Seq    uint16
	TS     uint32 // the RTP timestamp, also the sender report's
	SSRC   uint32

	NTP     time.Time
	Packets uint32
	Octets  uint32
}

// stackOf lists the encapsulations layout l stacks for kind k, outermost
// first (Fig. 7): after any Zoom encapsulation, an RTCP kind carries a
// sender report (and an empty SDES for KindSRSDES), any other kind RTP.
func stackOf(l Layout, k Kind) []*Encapsulation {
	body := []*Encapsulation{&RTPHeader}
	switch k {
	case KindSR:
		body = []*Encapsulation{&SenderReport}
	case KindSRSDES:
		body = []*Encapsulation{&SenderReport, &SDES}
	}
	switch l {
	case LayoutServer:
		return append([]*Encapsulation{&SFUEncapsulation, &MediaEncapsulation}, body...)
	case LayoutP2P:
		return append([]*Encapsulation{&MediaEncapsulation}, body...)
	case LayoutSFU:
		return []*Encapsulation{&SFUEncapsulation}
	}
	return body
}

// compiled holds, per layout and kind, the rows the stack writes with
// their offsets from the start of the headers, and the headers' length:
// the transcription compiled once, so that a packet walks one short list.
var compiled = func() (c [LayoutSFU + 1][len(MediaHeaderLens)]struct {
	n    int
	rows []Field
}) {
	for l := range c {
		for k := range c[l] {
			if k != 0 && MediaHeaderLens[k] == 0 {
				continue // not a kind of Table 2: it writes nothing
			}
			p := &c[l][k]
			p.rows = make([]Field, 0, 20) // the most rows a stack has: SFU, media, SR and SDES
			for _, e := range stackOf(Layout(l), Kind(k)) {
				for _, f := range e.Fields {
					if f.Offset += p.n; !f.Video || Kind(k) == KindVideo {
						p.rows = append(p.rows, f)
					}
				}
				if p.n += e.Len; e.Len == 0 {
					p.n += MediaHeaderLens[k]
				}
			}
		}
	}
	return c
}()

// Len returns the number of bytes AppendHeaders appends for h.
func (h *Header) Len() int { return compiled[h.Layout][h.Kind].n }

// AppendHeaders appends h's encapsulations to dst, written row by row
// from the transcription; the caller appends the payload. It cannot
// fail: every row's value fits its width.
func AppendHeaders(dst []byte, h *Header) []byte {
	p := &compiled[h.Layout][h.Kind]
	start := len(dst)
	dst = append(dst, make([]byte, p.n)...)
	b := dst[start:]
	var v [valOctets + 1]uint64 // what each kind of row writes; valFixed's is 0
	v[valSFUType], v[valSFUSeq], v[valKind] = uint64(h.SFUType), uint64(h.SFUSeq), uint64(h.Kind)
	if h.Layout == LayoutServer {
		v[valSFUType] = SFUTypeMedia
	}
	if h.FromSFU {
		v[valDirection] = dirFromSFU
	}
	if h.Layout != LayoutSFU {
		v[valMediaSeq], v[valMediaTS] = uint64(h.MediaSeq), uint64(h.MediaTS)
		v[valFrameSeq], v[valFramePkts] = uint64(h.FrameSeq), uint64(h.FramePkts)
		if v[valMarkerPT] = uint64(h.PT & 0x7f); h.Marker {
			v[valMarkerPT] |= 0x80
		}
		v[valSeq], v[valTS], v[valSSRC] = uint64(h.Seq), uint64(h.TS), uint64(h.SSRC)
		if h.Kind == KindSR || h.Kind == KindSRSDES {
			v[valNTP], v[valPackets], v[valOctets] = ntpTime(h.NTP), uint64(h.Packets), uint64(h.Octets)
		}
	}
	for i := range p.rows {
		f := &p.rows[i]
		switch x := v[f.value] | f.fixed; f.Width {
		case 1:
			b[f.Offset] = byte(x)
		case 2:
			binary.BigEndian.PutUint16(b[f.Offset:], uint16(x))
		case 4:
			binary.BigEndian.PutUint32(b[f.Offset:], uint32(x))
		case 8:
			binary.BigEndian.PutUint64(b[f.Offset:], x)
		}
	}
	return dst
}

// ntpTime converts t to a 64-bit NTP timestamp: seconds since 1 January
// 1900 UTC in the high word, the fraction in the low word.
func ntpTime(t time.Time) uint64 {
	d := t.Sub(time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC))
	return uint64(d/time.Second)<<32 | uint64(d%time.Second)<<32/uint64(time.Second)
}
