package rtp

import (
	"testing"
	"testing/quick"
	"time"
)

func TestNTPRoundTrip(t *testing.T) {
	orig := time.Date(2022, 5, 5, 12, 34, 56, 789000000, time.UTC)
	n := NTPFromTime(orig)
	back := n.Time()
	if d := back.Sub(orig); d > time.Microsecond || d < -time.Microsecond {
		t.Errorf("NTP round trip drift %v", d)
	}
}

func TestQuickNTPMonotonic(t *testing.T) {
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	f := func(aMS, bMS uint32) bool {
		ta := base.Add(time.Duration(aMS) * time.Millisecond)
		tb := base.Add(time.Duration(bMS) * time.Millisecond)
		na, nb := NTPFromTime(ta), NTPFromTime(tb)
		if aMS == bMS {
			return na == nb
		}
		if aMS < bMS {
			return na < nb
		}
		return na > nb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSRRoundTrip(t *testing.T) {
	sr := SenderReport{
		SSRC:        0x00010203,
		NTPTS:       NTPFromTime(time.Date(2022, 5, 5, 15, 0, 0, 0, time.UTC)),
		RTPTS:       123456,
		PacketCount: 777,
		OctetCount:  88888,
	}
	wire := MarshalSR(sr, false)
	c, err := ParseCompound(wire)
	if err != nil {
		t.Fatalf("ParseCompound: %v", err)
	}
	if len(c.SenderReports) != 1 {
		t.Fatalf("got %d SRs", len(c.SenderReports))
	}
	got := c.SenderReports[0]
	if got.SSRC != sr.SSRC || got.NTPTS != sr.NTPTS || got.RTPTS != sr.RTPTS ||
		got.PacketCount != sr.PacketCount || got.OctetCount != sr.OctetCount {
		t.Errorf("SR = %+v, want %+v", got, sr)
	}
	if len(c.SDES) != 0 {
		t.Errorf("unexpected SDES: %+v", c.SDES)
	}
}

func TestSRWithEmptySDES(t *testing.T) {
	// Zoom media-encap type 34 = SR + SDES where SDES is always empty.
	sr := SenderReport{SSRC: 42, RTPTS: 9, PacketCount: 1, OctetCount: 2}
	wire := MarshalSR(sr, true)
	c, err := ParseCompound(wire)
	if err != nil {
		t.Fatalf("ParseCompound: %v", err)
	}
	if len(c.SenderReports) != 1 || len(c.SDES) != 1 {
		t.Fatalf("SRs=%d SDES=%d, want 1/1", len(c.SenderReports), len(c.SDES))
	}
	if c.SDES[0].SSRC != 42 {
		t.Errorf("SDES SSRC = %d", c.SDES[0].SSRC)
	}
	if c.SDES[0].CNAME != "" {
		t.Errorf("SDES CNAME = %q, want empty", c.SDES[0].CNAME)
	}
}

func TestSRWithReceptionReports(t *testing.T) {
	sr := SenderReport{
		SSRC: 1,
		Reports: []ReceptionReport{{
			SSRC:             2,
			FractionLost:     10,
			CumulativeLost:   0x123456,
			HighestSeq:       99999,
			Jitter:           321,
			LastSR:           7,
			DelaySinceLastSR: 8,
		}},
	}
	wire := MarshalSR(sr, false)
	c, err := ParseCompound(wire)
	if err != nil {
		t.Fatalf("ParseCompound: %v", err)
	}
	got := c.SenderReports[0].Reports
	if len(got) != 1 {
		t.Fatalf("reports = %d", len(got))
	}
	if got[0] != sr.Reports[0] {
		t.Errorf("report = %+v, want %+v", got[0], sr.Reports[0])
	}
}

func TestParseCompoundRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x80},
		{0x00, 200, 0, 0}, // version 0
		{0x80, 99, 0, 0},  // unknown first type
		func() []byte { // declared length beyond buffer
			b := MarshalSR(SenderReport{SSRC: 1}, false)
			b[3] = 200
			return b
		}(),
	}
	for i, c := range cases {
		if _, err := ParseCompound(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestParseCompoundToleratesTrailingBye(t *testing.T) {
	wire := MarshalSR(SenderReport{SSRC: 5}, false)
	bye := []byte{0x80 | 1, RTCPTypeBye, 0, 1, 0, 0, 0, 5}
	wire = append(wire, bye...)
	c, err := ParseCompound(wire)
	if err != nil {
		t.Fatalf("ParseCompound: %v", err)
	}
	if !c.HasBye {
		t.Error("HasBye = false")
	}
}

func TestQuickSRRoundTrip(t *testing.T) {
	f := func(ssrc, rtpts, pc, oc uint32, ntp uint64, sdes bool) bool {
		sr := SenderReport{SSRC: ssrc, NTPTS: NTPTime(ntp), RTPTS: rtpts, PacketCount: pc, OctetCount: oc}
		c, err := ParseCompound(MarshalSR(sr, sdes))
		if err != nil || len(c.SenderReports) != 1 {
			return false
		}
		g := c.SenderReports[0]
		if sdes && len(c.SDES) != 1 {
			return false
		}
		return g.SSRC == ssrc && g.RTPTS == rtpts && g.PacketCount == pc && g.OctetCount == oc && g.NTPTS == NTPTime(ntp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
