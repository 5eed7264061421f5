package zoom

import (
	"reflect"
	"testing"

	"zoomlens/internal/rtp"
)

// FuzzZoomParse drives the Zoom encapsulation parser with arbitrary UDP
// payloads in every layout mode. The contract under fuzzing is the
// production-hardening contract: never panic, and any payload that
// parses must re-marshal and re-parse cleanly.
func FuzzZoomParse(f *testing.F) {
	// Seed with the valid packets the simulator emits: server-based and
	// P2P layouts for each media type, plus an RTCP sender report.
	seed := func(p Packet) {
		b, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, mt := range []MediaType{TypeScreenShare, TypeAudio, TypeVideo} {
		for _, serverBased := range []bool{true, false} {
			seed(Packet{
				ServerBased: serverBased,
				SFU:         SFUEncap{Type: SFUTypeMedia, Sequence: 7, Direction: DirFromSFU},
				Media:       MediaEncap{Type: mt, Sequence: 3, Timestamp: 90000, PacketsInFrame: 2},
				RTP: rtp.Packet{
					Header:  rtp.Header{PayloadType: 98, SequenceNumber: 100, Timestamp: 90000, SSRC: 0xfeedf00d},
					Payload: []byte("media-bytes"),
				},
			})
		}
	}
	seed(Packet{
		ServerBased: true,
		SFU:         SFUEncap{Type: SFUTypeMedia, Direction: DirToSFU},
		Media:       MediaEncap{Type: TypeRTCPSR},
		RTCP:        rtp.CompoundPacket{SenderReports: []rtp.SenderReport{{SSRC: 1, NTPTS: 2, RTPTS: 3}}},
	})
	f.Add([]byte{})
	f.Add([]byte{SFUTypeMedia})
	f.Add([]byte{0xff, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []Mode{ModeAuto, ModeServer, ModeP2P} {
			p, err := ParsePacket(data, mode)
			if err != nil {
				continue
			}
			// Exercise the accessors a capped analyzer calls per packet.
			_ = p.IsMedia()
			out, err := p.Marshal()
			if err != nil {
				// Legal: e.g. a parsed RTCP compound without a sender
				// report cannot be re-marshaled.
				continue
			}
			if _, err := ParsePacket(out, mode); err != nil {
				t.Fatalf("mode %v: re-parse of marshal output failed: %v", mode, err)
			}
		}
	})
}

// FuzzPacketParseInPlace holds the in-place parse to the by-value one:
// parsing data into a receiver that an earlier payload was parsed into —
// slices, RTCP reports, SFU framing and all — gives exactly what parsing
// it into a fresh Packet gives, in every mode, and an error leaves the
// zero Packet.
func FuzzPacketParseInPlace(f *testing.F) {
	marshal := func(p Packet) []byte {
		b, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	media := func(mt MediaType, serverBased bool, h rtp.Header) []byte {
		return marshal(Packet{
			ServerBased: serverBased,
			SFU:         SFUEncap{Type: SFUTypeMedia, Sequence: 7, Direction: DirFromSFU, Reserved: [4]byte{1, 2, 3, 4}},
			Media:       MediaEncap{Type: mt, Sequence: 3, Timestamp: 90000, FrameSequence: 12, PacketsInFrame: 2},
			RTP:         rtp.Packet{Header: h, Payload: []byte("media-bytes")},
		})
	}
	plain := rtp.Header{PayloadType: 98, SequenceNumber: 100, Timestamp: 90000, SSRC: 0xfeedf00d}
	busy := rtp.Header{PayloadType: 110, Marker: true, SequenceNumber: 9, Timestamp: 1, SSRC: 2,
		CSRC: []uint32{5, 6}, Extension: true, ExtensionProfile: 0xbede, ExtensionData: []byte{1, 2, 3, 4}}
	seeds := [][]byte{
		media(TypeVideo, true, plain), media(TypeVideo, false, busy), media(TypeAudio, true, busy), media(TypeScreenShare, false, plain),
		marshal(Packet{ServerBased: true, SFU: SFUEncap{Type: SFUTypeMedia}, Media: MediaEncap{Type: TypeRTCPSR},
			RTCP: rtp.CompoundPacket{SenderReports: []rtp.SenderReport{{SSRC: 1, NTPTS: 2, RTPTS: 3}}}}),
		marshal(Packet{Media: MediaEncap{Type: TypeRTCPSRSDES},
			RTCP: rtp.CompoundPacket{SenderReports: []rtp.SenderReport{{SSRC: 4, NTPTS: 5, RTPTS: 6}}}}),
		media(TypeVideo, true, plain)[:SFUEncapLen+30], // server-based framing around a cut RTP header
		{}, {SFUTypeMedia}, {0xff, 0x00, 0x01},
	}
	for _, dirt := range seeds {
		for _, data := range seeds {
			f.Add(dirt, data)
		}
	}

	f.Fuzz(func(t *testing.T, dirt, data []byte) {
		for _, mode := range []Mode{ModeAuto, ModeServer, ModeP2P} {
			for _, dirtMode := range []Mode{ModeAuto, ModeServer, ModeP2P} {
				var p Packet
				_ = p.Parse(dirt, dirtMode) // an error only means a clean receiver
				err := p.Parse(data, mode)
				fresh, freshErr := ParsePacket(data, mode)
				if (err == nil) != (freshErr == nil) || (err != nil && err.Error() != freshErr.Error()) {
					t.Fatalf("mode %v after %v: in place err = %v, fresh err = %v", mode, dirtMode, err, freshErr)
				}
				if !reflect.DeepEqual(p, fresh) {
					t.Fatalf("mode %v after %v: in place %+v, fresh %+v", mode, dirtMode, p, fresh)
				}
				if err != nil && !reflect.DeepEqual(p, Packet{}) {
					t.Fatalf("mode %v after %v: error left %+v", mode, dirtMode, p)
				}
			}
		}
	})
}
