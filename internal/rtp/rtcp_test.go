package rtp

import (
	"testing"
	"testing/quick"
	"time"

	"zoomlens/internal/sim"
)

// writeSR returns the simulator's sender report for sr's fields, sent
// at wall-clock time at, followed by its empty SDES when sdes is set
// (Zoom's type-34 packets).
func writeSR(sr SenderReport, at time.Time, sdes bool) []byte {
	h := sim.Header{Layout: sim.LayoutBare, Kind: sim.KindSR, SSRC: sr.SSRC, TS: sr.RTPTS, NTP: at,
		Packets: sr.PacketCount, Octets: sr.OctetCount}
	if sdes {
		h.Kind = sim.KindSRSDES
	}
	return sim.AppendHeaders(nil, &h)
}

// onlySR parses wire as a compound holding one sender report.
func onlySR(t *testing.T, wire []byte) SenderReport {
	t.Helper()
	c, err := ParseCompound(wire)
	if err != nil {
		t.Fatalf("ParseCompound: %v", err)
	}
	if len(c.SenderReports) != 1 {
		t.Fatalf("got %d SRs", len(c.SenderReports))
	}
	return c.SenderReports[0]
}

func TestNTPRoundTrip(t *testing.T) {
	orig := time.Date(2022, 5, 5, 12, 34, 56, 789000000, time.UTC)
	back := onlySR(t, writeSR(SenderReport{SSRC: 1}, orig, false)).NTPTS.Time()
	if d := back.Sub(orig); d > time.Microsecond || d < -time.Microsecond {
		t.Errorf("NTP round trip drift %v", d)
	}
}

func TestQuickNTPMonotonic(t *testing.T) {
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	ntp := func(ms uint32) NTPTime {
		c, err := ParseCompound(writeSR(SenderReport{SSRC: 1}, base.Add(time.Duration(ms)*time.Millisecond), false))
		if err != nil || len(c.SenderReports) != 1 {
			return 0
		}
		return c.SenderReports[0].NTPTS
	}
	f := func(aMS, bMS uint32) bool {
		na, nb := ntp(aMS), ntp(bMS)
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
	at := time.Date(2022, 5, 5, 15, 0, 0, 0, time.UTC)
	sr := SenderReport{SSRC: 0x00010203, RTPTS: 123456, PacketCount: 777, OctetCount: 88888}
	wire := writeSR(sr, at, false)
	c, err := ParseCompound(wire)
	if err != nil {
		t.Fatalf("ParseCompound: %v", err)
	}
	got := onlySR(t, wire)
	if got.SSRC != sr.SSRC || !got.NTPTS.Time().Equal(at) || got.RTPTS != sr.RTPTS ||
		got.PacketCount != sr.PacketCount || got.OctetCount != sr.OctetCount || len(got.Reports) != 0 {
		t.Errorf("SR = %+v, want %+v at %v", got, sr, at)
	}
	if len(c.SDES) != 0 {
		t.Errorf("unexpected SDES: %+v", c.SDES)
	}
}

func TestSRWithEmptySDES(t *testing.T) {
	// Zoom media-encap type 34 = SR + SDES where SDES is always empty.
	c, err := ParseCompound(writeSR(SenderReport{SSRC: 42, RTPTS: 9, PacketCount: 1, OctetCount: 2}, time.Now(), true))
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
	// Zoom sends no reception reports (§4.2.1), so the simulator writes
	// none; this SR carries one block, by hand.
	wire := []byte{
		0x81, 200, 0x00, 0x0c, // V=2, RC=1; SR; 13 words
		0x00, 0x00, 0x00, 0x01, // SSRC of sender
		0, 0, 0, 0, 0, 0, 0, 0, // NTP timestamp
		0, 0, 0, 0, // RTP timestamp
		0, 0, 0, 0, // packet count
		0, 0, 0, 0, // octet count
		0x00, 0x00, 0x00, 0x02, // report block: SSRC
		10, 0x12, 0x34, 0x56, // fraction lost, cumulative lost (24 bits)
		0x00, 0x01, 0x86, 0x9f, // extended highest sequence number: 99999
		0x00, 0x00, 0x01, 0x41, // jitter: 321
		0x00, 0x00, 0x00, 0x07, // last SR
		0x00, 0x00, 0x00, 0x08, // delay since last SR
	}
	want := ReceptionReport{SSRC: 2, FractionLost: 10, CumulativeLost: 0x123456, HighestSeq: 99999, Jitter: 321, LastSR: 7, DelaySinceLastSR: 8}
	got := onlySR(t, wire).Reports
	if len(got) != 1 {
		t.Fatalf("reports = %d", len(got))
	}
	if got[0] != want {
		t.Errorf("report = %+v, want %+v", got[0], want)
	}
}

func TestParseCompoundRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x80},
		{0x00, 200, 0, 0}, // version 0
		{0x80, 99, 0, 0},  // unknown first type
		func() []byte { // declared length beyond buffer
			b := writeSR(SenderReport{SSRC: 1}, time.Now(), false)
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
	wire := writeSR(SenderReport{SSRC: 5}, time.Now(), false)
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

// TestByeInCompound reads a BYE behind a receiver report, which the
// parser tolerates without modelling (Zoom sends none).
func TestByeInCompound(t *testing.T) {
	wire := writeSR(SenderReport{SSRC: 5}, time.Now(), true)
	wire = append(wire,
		0x80, RTCPTypeRR, 0, 1, 0, 0, 0, 5, // RR: V=2, RC=0, 2 words, SSRC 5
		0x81, RTCPTypeBye, 0, 1, 0, 0, 0, 5, // BYE: one SSRC
	)
	c, err := ParseCompound(wire)
	if err != nil {
		t.Fatalf("ParseCompound: %v", err)
	}
	if !c.HasBye || len(c.SenderReports) != 1 || len(c.SDES) != 1 {
		t.Errorf("compound = %+v, want one SR, one SDES and a BYE", c)
	}
}

func TestQuickSRRoundTrip(t *testing.T) {
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	f := func(ssrc, rtpts, pc, oc uint32, ns uint64, sdes bool) bool {
		at := base.Add(time.Duration(ns % (1 << 58))) // within the NTP era (to 2036)
		sr := SenderReport{SSRC: ssrc, RTPTS: rtpts, PacketCount: pc, OctetCount: oc}
		c, err := ParseCompound(writeSR(sr, at, sdes))
		if err != nil || len(c.SenderReports) != 1 {
			return false
		}
		g := c.SenderReports[0]
		if sdes != (len(c.SDES) == 1) {
			return false
		}
		// The NTP fraction is finer than a nanosecond; reading it back
		// truncates by at most one.
		d := g.NTPTS.Time().Sub(at)
		return g.SSRC == ssrc && g.RTPTS == rtpts && g.PacketCount == pc && g.OctetCount == oc && d >= -1 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
