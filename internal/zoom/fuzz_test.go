package zoom_test

import (
	"reflect"
	"testing"

	"zoomlens/internal/rtp"
	"zoomlens/internal/sim"
	"zoomlens/internal/zoom"
)

// Payloads the simulator's writer cannot produce, for the fuzz seeds:
// RTP headers with a CSRC list and a header extension.
var (
	// A P2P video packet: the golden video media encapsulation, then RTP
	// with marker, PT 110, two CSRCs and a one-word extension.
	p2pVideoCSRCExt = []byte{
		0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0x00, 0x03, 0x00, 0x01, 0x5f, 0x90, 0, 0, 0, 0, 0, 0, 0x00, 0x0c, 0x02, // media encapsulation, type 16
		0x92, 0xee, 0x00, 0x09, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, // V=2, X, CC=2; M, PT 110; seq 9; ts 1; SSRC 2
		0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x06, // CSRCs 5 and 6
		0xbe, 0xde, 0x00, 0x01, 0x01, 0x02, 0x03, 0x04, // extension profile 0xbede, one word
		'm', 'e', 'd', 'i', 'a',
	}
	// The same RTP header behind a server-based audio encapsulation.
	sfuAudioCSRCExt = []byte{
		0x05, 0x00, 0x07, 1, 2, 3, 4, 0x04, // SFU encapsulation, from the SFU, undecoded bytes 3-6 set
		0x0f, 0, 0, 0, 0, 0, 0, 0, 0, 0x00, 0x03, 0x00, 0x01, 0x5f, 0x90, 0, 0, 0, 0, // media encapsulation, type 15
		0x92, 0xee, 0x00, 0x09, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02,
		0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x06,
		0xbe, 0xde, 0x00, 0x01, 0x01, 0x02, 0x03, 0x04,
		'm', 'e', 'd', 'i', 'a',
	}
)

// fuzzSeeds is every golden frame, the CSRC and extension payloads, a
// server-based frame cut inside its RTP header, and a few scraps.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	for _, f := range goldenFrames() {
		seeds = append(seeds, f.wire)
	}
	cut := goldenFrames()[0].wire
	return append(seeds, p2pVideoCSRCExt, sfuAudioCSRCExt, cut[:zoom.SFUEncapLen+30], []byte{}, []byte{zoom.SFUTypeMedia}, []byte{0xff, 0x00, 0x01})
}

// FuzzZoomParse drives the Zoom encapsulation parser with arbitrary UDP
// payloads in every layout mode. It must never panic, and it is held to
// the simulator's writer: a payload that parses and that the writer can
// express (no CSRC, extension or padding; one sender report with no
// report blocks, with an empty SDES exactly when the type says so) is
// rewritten from its decoded fields and must parse back to them.
func FuzzZoomParse(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []zoom.Mode{zoom.ModeAuto, zoom.ModeServer, zoom.ModeP2P} {
			p, err := zoom.ParsePacket(data, mode)
			if err != nil {
				continue
			}
			h, body, ok := expressible(&p)
			if !ok {
				continue
			}
			got, err := zoom.ParsePacket(append(sim.AppendHeaders(nil, &h), body...), mode)
			if err != nil {
				t.Fatalf("mode %v: the writer's rewrite of %+v does not parse: %v", mode, p, err)
			}
			want := p
			if len(want.RTCP.SenderReports) == 1 {
				// The writer takes the report's time; at nanosecond
				// resolution the NTP fraction may round down by a unit.
				g, w := got.RTCP.SenderReports[0].NTPTS.Time(), want.RTCP.SenderReports[0].NTPTS.Time()
				if d := g.Sub(w); d < -1 || d > 1 {
					t.Fatalf("mode %v: NTP %v rewritten as %v", mode, w, g)
				}
				want.RTCP.SenderReports = []rtp.SenderReport{want.RTCP.SenderReports[0]}
				want.RTCP.SenderReports[0].NTPTS = got.RTCP.SenderReports[0].NTPTS
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("mode %v: rewritten packet parses to\n%+v\nwant\n%+v", mode, got, want)
			}
		}
	})
}

// expressible returns the writer's input for p and the body to append
// after the headers, or false if the writer cannot produce p.
func expressible(p *zoom.Packet) (sim.Header, []byte, bool) {
	h := sim.Header{
		Layout:    sim.LayoutP2P,
		Kind:      sim.Kind(p.Media.Type),
		SFUSeq:    p.SFU.Sequence,
		FromSFU:   p.SFU.Direction == zoom.DirFromSFU,
		MediaSeq:  p.Media.Sequence,
		MediaTS:   p.Media.Timestamp,
		FrameSeq:  p.Media.FrameSequence,
		FramePkts: p.Media.PacketsInFrame,
	}
	if p.ServerBased {
		h.Layout = sim.LayoutServer
		if p.SFU.Direction != 0x00 && p.SFU.Direction != zoom.DirFromSFU {
			return h, nil, false
		}
	}
	if p.IsMedia() {
		r := &p.RTP
		if len(r.CSRC) > 0 || r.Extension || r.Padding {
			return h, nil, false
		}
		h.PT, h.Marker, h.Seq, h.TS, h.SSRC = r.PayloadType, r.Marker, r.SequenceNumber, r.Timestamp, r.SSRC
		return h, r.Payload, true
	}
	c := &p.RTCP
	if len(c.SenderReports) != 1 || len(c.SenderReports[0].Reports) > 0 || c.HasBye {
		return h, nil, false
	}
	sr := &c.SenderReports[0]
	wantSDES := []rtp.SDESItem(nil)
	if p.Media.Type == zoom.TypeRTCPSRSDES {
		wantSDES = []rtp.SDESItem{{SSRC: sr.SSRC}}
	}
	if !reflect.DeepEqual(c.SDES, wantSDES) {
		return h, nil, false
	}
	h.SSRC, h.TS, h.NTP, h.Packets, h.Octets = sr.SSRC, sr.RTPTS, sr.NTPTS.Time(), sr.PacketCount, sr.OctetCount
	return h, nil, true
}

// FuzzPacketParseInPlace holds the in-place parse to the by-value one:
// parsing data into a receiver that an earlier payload was parsed into —
// slices, RTCP reports, SFU framing and all — gives exactly what parsing
// it into a fresh Packet gives, in every mode, and an error leaves the
// zero Packet.
func FuzzPacketParseInPlace(f *testing.F) {
	seeds := fuzzSeeds()
	for _, dirt := range seeds {
		for _, data := range seeds {
			f.Add(dirt, data)
		}
	}

	f.Fuzz(func(t *testing.T, dirt, data []byte) {
		for _, mode := range []zoom.Mode{zoom.ModeAuto, zoom.ModeServer, zoom.ModeP2P} {
			for _, dirtMode := range []zoom.Mode{zoom.ModeAuto, zoom.ModeServer, zoom.ModeP2P} {
				var p zoom.Packet
				_ = p.Parse(dirt, dirtMode) // an error only means a clean receiver
				err := p.Parse(data, mode)
				fresh, freshErr := zoom.ParsePacket(data, mode)
				if (err == nil) != (freshErr == nil) || (err != nil && err.Error() != freshErr.Error()) {
					t.Fatalf("mode %v after %v: in place err = %v, fresh err = %v", mode, dirtMode, err, freshErr)
				}
				if !reflect.DeepEqual(p, fresh) {
					t.Fatalf("mode %v after %v: in place %+v, fresh %+v", mode, dirtMode, p, fresh)
				}
				if err != nil && !reflect.DeepEqual(p, zoom.Packet{}) {
					t.Fatalf("mode %v after %v: error left %+v", mode, dirtMode, p)
				}
			}
		}
	})
}
