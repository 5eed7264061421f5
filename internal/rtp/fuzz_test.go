package rtp

import (
	"reflect"
	"testing"
)

// FuzzRTPParse drives the RTP and RTCP parsers with arbitrary bytes.
// They must never panic, and they are held to the simulator's writer:
// an RTP packet it can express (no CSRC, extension or padding), and a
// lone sender report with no report blocks (with or without its empty
// SDES), is rewritten from its decoded fields and must parse back to
// them.
func FuzzRTPParse(f *testing.F) {
	// The RTP and RTCP of the golden frames (internal/zoom/golden_test.go).
	f.Add([]byte{0x80, 0xe2, 0x15, 0xb3, 0x00, 0x0d, 0xbc, 0x9a, 0x01, 0x00, 0x04, 0x01, 0xde, 0xad, 0xbe, 0xef}) // video
	f.Add([]byte{0x80, 0x70, 0x00, 0x01, 0x00, 0x00, 0x3f, 0x20, 0x01, 0x00, 0x04, 0x02, 0x0a, 0x0b, 0x0c})       // audio
	f.Add([]byte{                                                                                                 // sender report + SDES
		0x80, 0xc8, 0x00, 0x06, 0x01, 0x00, 0x04, 0x02, 0xe6, 0x1e, 0x64, 0xf0, 0x80, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x3f, 0x20, 0x00, 0x00, 0x00, 0x32, 0x00, 0x00, 0x07, 0xd0,
		0x81, 0xca, 0x00, 0x02, 0x01, 0x00, 0x04, 0x02, 0x00, 0x00, 0x00, 0x00,
	})
	// What the writer never emits: CSRCs, then a header extension too.
	f.Add([]byte{0x82, 0xef, 0x10, 0x92, 0x00, 0x12, 0xd6, 0x87, 0xca, 0xfe, 0xba, 0xbe, 0, 0, 0, 1, 0, 0, 0, 2, 'o', 'p', 'u', 's'})
	f.Add([]byte{0x92, 0xef, 0x10, 0x92, 0x00, 0x12, 0xd6, 0x87, 0xca, 0xfe, 0xba, 0xbe, 0, 0, 0, 1, 0, 0, 0, 2,
		0xbe, 0xde, 0x00, 0x01, 1, 2, 3, 4, 'o', 'p', 'u', 's'})
	f.Add([]byte{})
	f.Add([]byte{0x80})

	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := Parse(data); err == nil && len(p.CSRC) == 0 && !p.Extension && !p.Padding {
			got, err := Parse(writeRTP(p.Header, p.Payload))
			if err != nil || !reflect.DeepEqual(got, p) {
				t.Fatalf("rewritten %+v parses to %+v, %v", p, got, err)
			}
		}
		cp, err := ParseCompound(data)
		if err != nil || len(cp.SenderReports) != 1 || len(cp.SenderReports[0].Reports) > 0 || cp.HasBye {
			return
		}
		sr := cp.SenderReports[0]
		sdes := len(cp.SDES) == 1 && cp.SDES[0] == SDESItem{SSRC: sr.SSRC}
		if len(cp.SDES) > 0 && !sdes {
			return
		}
		got, err := ParseCompound(writeSR(sr, sr.NTPTS.Time(), sdes))
		if err != nil || len(got.SenderReports) != 1 || len(got.SDES) != len(cp.SDES) {
			t.Fatalf("rewritten %+v parses to %+v, %v", cp, got, err)
		}
		g := got.SenderReports[0]
		if d := g.NTPTS.Time().Sub(sr.NTPTS.Time()); d < -1 || d > 1 {
			t.Fatalf("NTP %v rewritten as %v", sr.NTPTS.Time(), g.NTPTS.Time())
		}
		g.NTPTS = sr.NTPTS
		if !reflect.DeepEqual(g, sr) {
			t.Fatalf("rewritten %+v parses to %+v", sr, g)
		}
	})
}
