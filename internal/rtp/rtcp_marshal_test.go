package rtp

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

// The receiver report and BYE codecs below build fixtures for the
// compound parser; Zoom traffic carries only SRs (+ empty SDES), so the
// analyzer has no use for them.

// receiverReport is an RTCP RR (RFC 3550 §6.4.2).
type receiverReport struct {
	SSRC    uint32
	Reports []ReceptionReport
}

func marshalRR(rr receiverReport) []byte {
	words := 1 + 6*len(rr.Reports)
	out := make([]byte, 0, 4*(words+1))
	out = append(out, byte(Version<<6)|byte(len(rr.Reports)), RTCPTypeRR)
	out = binary.BigEndian.AppendUint16(out, uint16(words))
	out = binary.BigEndian.AppendUint32(out, rr.SSRC)
	for _, r := range rr.Reports {
		out = binary.BigEndian.AppendUint32(out, r.SSRC)
		out = append(out, r.FractionLost, byte(r.CumulativeLost>>16), byte(r.CumulativeLost>>8), byte(r.CumulativeLost))
		out = binary.BigEndian.AppendUint32(out, r.HighestSeq)
		out = binary.BigEndian.AppendUint32(out, r.Jitter)
		out = binary.BigEndian.AppendUint32(out, r.LastSR)
		out = binary.BigEndian.AppendUint32(out, r.DelaySinceLastSR)
	}
	return out
}

// parseRR decodes a single RR packet (not a compound).
func parseRR(data []byte) (receiverReport, error) {
	var rr receiverReport
	if len(data) < 8 || data[0]>>6 != Version || data[1] != RTCPTypeRR {
		return rr, ErrNotRTCP
	}
	count := int(data[0] & 0x1f)
	body := data[4:]
	if len(body) < 4+24*count {
		return rr, ErrNotRTCP
	}
	rr.SSRC = binary.BigEndian.Uint32(body[0:4])
	for i := 0; i < count; i++ {
		b := body[4+24*i:]
		rr.Reports = append(rr.Reports, ReceptionReport{
			SSRC:             binary.BigEndian.Uint32(b[0:4]),
			FractionLost:     b[4],
			CumulativeLost:   uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7]),
			HighestSeq:       binary.BigEndian.Uint32(b[8:12]),
			Jitter:           binary.BigEndian.Uint32(b[12:16]),
			LastSR:           binary.BigEndian.Uint32(b[16:20]),
			DelaySinceLastSR: binary.BigEndian.Uint32(b[20:24]),
		})
	}
	return rr, nil
}

func marshalBye(ssrcs []uint32) []byte {
	out := []byte{byte(Version<<6) | byte(len(ssrcs)), RTCPTypeBye}
	out = binary.BigEndian.AppendUint16(out, uint16(len(ssrcs)))
	for _, s := range ssrcs {
		out = binary.BigEndian.AppendUint32(out, s)
	}
	return out
}

func TestRRRoundTrip(t *testing.T) {
	rr := receiverReport{
		SSRC: 42,
		Reports: []ReceptionReport{{
			SSRC: 7, FractionLost: 12, CumulativeLost: 345,
			HighestSeq: 99999, Jitter: 88, LastSR: 1, DelaySinceLastSR: 2,
		}},
	}
	got, err := parseRR(marshalRR(rr))
	if err != nil {
		t.Fatalf("ParseRR: %v", err)
	}
	if got.SSRC != 42 || len(got.Reports) != 1 || got.Reports[0] != rr.Reports[0] {
		t.Errorf("got %+v", got)
	}
}

func TestParseRRRejects(t *testing.T) {
	if _, err := parseRR(nil); err == nil {
		t.Error("nil accepted")
	}
	sr := MarshalSR(SenderReport{SSRC: 1}, false)
	if _, err := parseRR(sr); err == nil {
		t.Error("SR accepted as RR")
	}
	rr := marshalRR(receiverReport{SSRC: 1, Reports: []ReceptionReport{{SSRC: 2}}})
	if _, err := parseRR(rr[:10]); err == nil {
		t.Error("truncated RR accepted")
	}
}

func TestByeInCompound(t *testing.T) {
	wire := MarshalSR(SenderReport{SSRC: 5}, false)
	wire = append(wire, marshalBye([]uint32{5})...)
	c, err := ParseCompound(wire)
	if err != nil {
		t.Fatalf("ParseCompound: %v", err)
	}
	if !c.HasBye {
		t.Error("BYE not detected")
	}
}

func TestQuickRRRoundTrip(t *testing.T) {
	f := func(ssrc, rssrc, hseq, jit uint32, fl uint8, cum uint32) bool {
		rr := receiverReport{SSRC: ssrc, Reports: []ReceptionReport{{
			SSRC: rssrc, FractionLost: fl, CumulativeLost: cum & 0xffffff,
			HighestSeq: hseq, Jitter: jit,
		}}}
		got, err := parseRR(marshalRR(rr))
		return err == nil && got.SSRC == ssrc && got.Reports[0] == rr.Reports[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
