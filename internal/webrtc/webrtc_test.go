package webrtc

import (
	"testing"

	"zoomlens/internal/sim"
)

// write returns the simulator's standards-RTC headers for h followed by
// n bytes of payload.
func write(h sim.Header, n int) []byte {
	h.Layout = sim.LayoutBare
	return append(sim.AppendHeaders(nil, &h), make([]byte, n)...)
}

func TestParseRTP(t *testing.T) {
	h := sim.Header{Kind: sim.KindAudio, PT: 111, Seq: 100, TS: 48000, SSRC: 0xabad1dea}
	got, err := Parse(write(h, 90))
	if err != nil {
		t.Fatal(err)
	}
	if got.IsRTCP {
		t.Fatal("classified RTP as RTCP")
	}
	if got.Kind != KindAudio {
		t.Errorf("Kind = %v, want audio", got.Kind)
	}
	if got.RTP.SSRC != h.SSRC || got.RTP.SequenceNumber != h.Seq {
		t.Errorf("header mismatch: %+v", got.RTP.Header)
	}
}

func TestParseRTCP(t *testing.T) {
	got, err := Parse(write(sim.Header{Kind: sim.KindSRSDES, SSRC: 3, TS: 10}, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsRTCP || got.Kind != KindRTCP {
		t.Fatalf("SR not classified as RTCP: %+v", got)
	}
	if len(got.RTCP.SenderReports) != 1 || got.RTCP.SenderReports[0].SSRC != 3 {
		t.Errorf("sender report not decoded: %+v", got.RTCP)
	}
}

func TestProbeRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":        nil,
		"short":        {0x80, 111, 0, 1},
		"version 0":    append([]byte{0x00}, make([]byte, 20)...),
		"version 1":    append([]byte{0x40, 111}, make([]byte, 20)...),
		"zoom type 5":  append([]byte{5}, make([]byte, 30)...),
		"header only":  write(sim.Header{Kind: sim.KindVideo, PT: 96}, 0), // SRTP media always carries ciphertext
		"csrc overrun": {0x8f, 111, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1},
	}
	for name, payload := range cases {
		if Probe(payload) {
			t.Errorf("Probe accepted %s", name)
		}
	}
}

func TestClassifyRTP(t *testing.T) {
	cases := []struct {
		pt   uint8
		size int
		want Kind
	}{
		{0, 160, KindAudio},    // PCMU
		{8, 160, KindAudio},    // PCMA
		{111, 1200, KindAudio}, // Opus stays audio regardless of size
		{96, 60, KindVideo},    // VP8 stays video regardless of size
		{98, 1100, KindVideo},
		{119, 80, KindAudio},   // unknown dynamic, small → audio
		{119, 1100, KindVideo}, // unknown dynamic, large → video
	}
	for _, c := range cases {
		if got := ClassifyRTP(c.pt, c.size); got != c.want {
			t.Errorf("ClassifyRTP(%d, %d) = %v, want %v", c.pt, c.size, got, c.want)
		}
	}
}

// TestProbeParseAgreement enumerates header-bit combinations and checks
// the claim-check contract: every RTP payload Probe accepts must Parse,
// and Parse never panics on a claimed RTCP payload (unmodeled feedback
// types may fail with an error — claimed-but-undecodable is allowed).
func TestProbeParseAgreement(t *testing.T) {
	payload := make([]byte, 64)
	for b0 := 0; b0 < 256; b0++ {
		for b1 := 0; b1 < 256; b1++ {
			payload[0], payload[1] = byte(b0), byte(b1)
			if !Probe(payload) {
				continue
			}
			_, err := Parse(payload)
			if err != nil && !isRTCPOctet(byte(b1)) {
				t.Fatalf("Probe accepted RTP %#02x %#02x but Parse failed: %v", b0, b1, err)
			}
		}
	}
}

// FuzzWebRTCParse is the decoder's crash-safety fuzz target (wired into
// make fuzz-smoke): Parse must never panic, and must agree with Probe.
func FuzzWebRTCParse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 111, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0xaa})
	f.Add(write(sim.Header{Kind: sim.KindSRSDES, SSRC: 1}, 0))
	f.Add([]byte{0x90, 96, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xbe, 0xde, 0, 1, 1, 2, 3, 4, 9, 9}) // header extension, which the writer never emits
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil && Probe(data) && !(len(data) >= 2 && isRTCPOctet(data[1])) {
			t.Fatalf("Probe accepted RTP but Parse failed: %v", err)
		}
		if err == nil && !p.IsRTCP {
			// Classification must be deterministic and total.
			if k := ClassifyRTP(p.RTP.PayloadType, len(p.RTP.Payload)); k == KindUnknown {
				t.Fatal("ClassifyRTP returned unknown")
			}
		}
	})
}
