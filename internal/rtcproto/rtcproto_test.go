package rtcproto

import (
	"reflect"
	"strings"
	"testing"

	"zoomlens/internal/rtp"
	"zoomlens/internal/zoom"
)

func names(set []Plugin) string {
	out := make([]string, len(set))
	for i, p := range set {
		out[i] = p.Name()
	}
	return strings.Join(out, ",")
}

func TestParseSet(t *testing.T) {
	cases := []struct {
		spec string
		want string // comma-joined names, "" = expect error
	}{
		{"", "zoom,webrtc"},
		{"auto", "zoom,webrtc"},
		{" auto ", "zoom,webrtc"},
		{"zoom", "zoom"},
		{"webrtc", "webrtc"},
		{"zoom,webrtc", "zoom,webrtc"},
		// Canonical order regardless of spelling order, duplicates folded.
		{"webrtc,zoom", "zoom,webrtc"},
		{"zoom, zoom", "zoom"},
		{"bogus", ""},
		{"zoom,bogus", ""},
		{"auto,zoom", ""},
		{",,", ""},
	}
	for _, c := range cases {
		set, err := ParseSet(c.spec)
		if c.want == "" {
			if err == nil {
				t.Errorf("ParseSet(%q) = %s, want error", c.spec, names(set))
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSet(%q): %v", c.spec, err)
			continue
		}
		if got := names(set); got != c.want {
			t.Errorf("ParseSet(%q) = %s, want %s", c.spec, got, c.want)
		}
	}
}

// setNames renders a plugin set back to its canonical flag spelling.
func setNames(set []Plugin) string {
	if len(set) == len(canonical) {
		return "auto"
	}
	return names(set)
}

func TestSetNames(t *testing.T) {
	for _, spec := range []string{"auto", "zoom", "webrtc", "zoom,webrtc"} {
		set, err := ParseSet(spec)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := ParseSet(setNames(set))
		if err != nil {
			t.Fatalf("round trip of %q: %v", spec, err)
		}
		if names(rt) != names(set) {
			t.Errorf("setNames round trip of %q: %s != %s", spec, names(rt), names(set))
		}
	}
}

func TestNameOf(t *testing.T) {
	if got := NameOf(uint8(IDZoom)); got != "zoom" {
		t.Errorf("NameOf(IDZoom) = %q", got)
	}
	if got := NameOf(uint8(IDWebRTC)); got != "webrtc" {
		t.Errorf("NameOf(IDWebRTC) = %q", got)
	}
	if got := NameOf(9); got != "proto(9)" {
		t.Errorf("NameOf(9) = %q", got)
	}
}

func TestHasNonZoom(t *testing.T) {
	if HasNonZoom([]Plugin{Zoom()}) {
		t.Error("HasNonZoom(zoom only) = true")
	}
	if !HasNonZoom(DefaultSet()) {
		t.Error("HasNonZoom(default set) = false")
	}
	if !HasNonZoom([]Plugin{WebRTC()}) {
		t.Error("HasNonZoom(webrtc only) = false")
	}
}

// TestProbeDisjoint proves the byte-identical differential invariant's
// foundation: no payload is claimed by both plugins, so enabling the
// webrtc plugin cannot change how a Zoom packet is classified. Zoom's
// grammar accepts first bytes < 0x80 only; RTP's version bits demand
// 0x80–0xBF.
func TestProbeDisjoint(t *testing.T) {
	payload := make([]byte, 64)
	for b := 0; b < 256; b++ {
		payload[0] = byte(b)
		z := Zoom().Probe(payload)
		w := WebRTC().Probe(payload)
		if z && w {
			t.Fatalf("first byte %#02x claimed by both plugins", b)
		}
		if z && b >= 0x80 {
			t.Errorf("zoom probe accepted first byte %#02x (>= 0x80)", b)
		}
		if w && (b < 0x80 || b > 0xBF) {
			t.Errorf("webrtc probe accepted first byte %#02x outside RTP v2 range", b)
		}
	}
}

// TestWebRTCDecodeNormalization checks the zoom.Packet container a
// webrtc decode produces: kind maps to the Zoom media-type codes and the
// media-framing sequence/timestamp mirror the RTP header.
func TestWebRTCDecodeNormalization(t *testing.T) {
	rp := rtp.Packet{
		Header: rtp.Header{
			PayloadType:    111, // conventional Opus: audio
			SequenceNumber: 4242,
			Timestamp:      96000,
			SSRC:           0xdecafbad,
			Marker:         true,
		},
		Payload: make([]byte, 80),
	}
	raw, err := rp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !WebRTC().Probe(raw) {
		t.Fatal("webrtc probe rejected a marshaled RTP packet")
	}
	if Zoom().Probe(raw) {
		t.Fatal("zoom probe claimed a standards RTP packet")
	}
	mo, err := WebRTC().Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if mo.Proto != IDWebRTC {
		t.Errorf("Proto = %v, want IDWebRTC", mo.Proto)
	}
	zp := mo.Pkt
	if zp.Media.Type != zoom.TypeAudio {
		t.Errorf("media type = %v, want TypeAudio", zp.Media.Type)
	}
	if zp.Media.Sequence != 4242 || zp.Media.Timestamp != 96000 {
		t.Errorf("media seq/ts = %d/%d, want 4242/96000", zp.Media.Sequence, zp.Media.Timestamp)
	}
	if zp.RTP.SSRC != 0xdecafbad || !zp.RTP.Marker {
		t.Errorf("RTP header not mirrored: ssrc=%#x marker=%t", zp.RTP.SSRC, zp.RTP.Marker)
	}
	if zp.SFU.Type != 0 || zp.ServerBased {
		t.Error("non-Zoom decode must leave the SFU framing zero")
	}

	// Video payload type.
	rp.PayloadType = 96
	rp.Payload = make([]byte, 1100)
	raw, err = rp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	mo, err = WebRTC().Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if mo.Pkt.Media.Type != zoom.TypeVideo {
		t.Errorf("media type = %v, want TypeVideo", mo.Pkt.Media.Type)
	}

	// RTCP sender report, with and without the SDES chunk.
	sr := rtp.SenderReport{SSRC: 7, RTPTS: 1234, PacketCount: 10, OctetCount: 1000}
	for _, withSDES := range []bool{false, true} {
		raw := rtp.MarshalSR(sr, withSDES)
		mo, err := WebRTC().Decode(raw)
		if err != nil {
			t.Fatalf("decode SR (sdes=%t): %v", withSDES, err)
		}
		want := zoom.TypeRTCPSR
		if withSDES {
			want = zoom.TypeRTCPSRSDES
		}
		if mo.Pkt.Media.Type != want {
			t.Errorf("SR (sdes=%t) media type = %v, want %v", withSDES, mo.Pkt.Media.Type, want)
		}
		if mo.Pkt.Media.Timestamp != 1234 {
			t.Errorf("SR media timestamp = %d, want 1234", mo.Pkt.Media.Timestamp)
		}
	}
}

// TestZoomPluginDecode round-trips one Zoom media packet through the
// plugin and confirms the probe mirrors ParsePacket's grammar.
func TestZoomPluginDecode(t *testing.T) {
	zp := zoom.Packet{
		Media: zoom.MediaEncap{Type: zoom.TypeAudio, Sequence: 9, Timestamp: 48000},
		RTP: rtp.Packet{
			Header:  rtp.Header{PayloadType: zoom.PTAudioSpeak, SequenceNumber: 9, Timestamp: 48000, SSRC: 5},
			Payload: make([]byte, 60),
		},
	}
	raw, err := zp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !Zoom().Probe(raw) {
		t.Fatal("zoom probe rejected a marshaled Zoom packet")
	}
	if WebRTC().Probe(raw) {
		t.Fatal("webrtc probe claimed a Zoom packet")
	}
	mo, err := Zoom().Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if mo.Proto != IDZoom {
		t.Errorf("Proto = %v, want IDZoom", mo.Proto)
	}
	if mo.Pkt.Media.Type != zoom.TypeAudio || mo.Pkt.RTP.SSRC != 5 {
		t.Errorf("decoded packet mismatch: %+v", mo.Pkt)
	}
}

// TestDecodeIntoMatchesDecode: for both plugins, decoding a payload into
// a packet that already holds any other payload's decode — RTCP sender
// reports, CSRC lists, SFU framing — gives what Decode returns for it
// by value, and a refused payload leaves the zero packet.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	marshal := func(b []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	busy := rtp.Header{PayloadType: 96, Marker: true, SequenceNumber: 9, Timestamp: 1, SSRC: 2,
		CSRC: []uint32{5, 6}, Extension: true, ExtensionProfile: 0xbede, ExtensionData: []byte{1, 2, 3, 4}}
	sr := rtp.SenderReport{SSRC: 7, RTPTS: 1234, PacketCount: 10, OctetCount: 1000}
	zoomRTCP := func(mt zoom.MediaType) []byte {
		p := zoom.Packet{ServerBased: true, SFU: zoom.SFUEncap{Type: zoom.SFUTypeMedia}, Media: zoom.MediaEncap{Type: mt},
			RTCP: rtp.CompoundPacket{SenderReports: []rtp.SenderReport{sr}}}
		return marshal(p.Marshal())
	}
	zoomMedia := func(mt zoom.MediaType, serverBased bool, h rtp.Header) []byte {
		p := zoom.Packet{ServerBased: serverBased, SFU: zoom.SFUEncap{Type: zoom.SFUTypeMedia, Direction: zoom.DirFromSFU},
			Media: zoom.MediaEncap{Type: mt, Sequence: 3, Timestamp: 90000, PacketsInFrame: 2},
			RTP:   rtp.Packet{Header: h, Payload: make([]byte, 300)}}
		return marshal(p.Marshal())
	}
	for _, tc := range []struct {
		plugin   Plugin
		fixtures [][]byte
	}{
		{Zoom(), [][]byte{
			zoomMedia(zoom.TypeVideo, true, busy),
			zoomMedia(zoom.TypeAudio, false, rtp.Header{PayloadType: zoom.PTAudioSpeak, SSRC: 5}),
			zoomMedia(zoom.TypeScreenShare, true, rtp.Header{PayloadType: zoom.PTScreenShare, SSRC: 6}),
			zoomRTCP(zoom.TypeRTCPSR),
			zoomRTCP(zoom.TypeRTCPSRSDES),
			zoomMedia(zoom.TypeVideo, true, busy)[:zoom.SFUEncapLen+30], // claimed by the probe, refused by the decode
			{byte(zoom.TypeVideo)},
		}},
		{WebRTC(), [][]byte{
			marshal((&rtp.Packet{Header: busy, Payload: make([]byte, 1100)}).Marshal()),
			marshal((&rtp.Packet{Header: rtp.Header{PayloadType: 111, SSRC: 3}, Payload: make([]byte, 80)}).Marshal()),
			rtp.MarshalSR(sr, false),
			rtp.MarshalSR(sr, true),
			{0x8f, 205, 0, 2, 0, 0, 0, 1, 0, 0, 0, 2}, // transport feedback: claimed, not modeled
		}},
	} {
		for i, dirt := range tc.fixtures {
			for j, payload := range tc.fixtures {
				if !tc.plugin.Probe(payload) {
					t.Fatalf("%s: fixture %d is not the plugin's", tc.plugin.Name(), j)
				}
				var pkt zoom.Packet
				_ = tc.plugin.DecodeInto(dirt, &pkt) // an error only means a clean receiver
				err := tc.plugin.DecodeInto(payload, &pkt)
				mo, wantErr := tc.plugin.Decode(payload)
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("%s: fixture %d after %d: DecodeInto err = %v, Decode err = %v", tc.plugin.Name(), j, i, err, wantErr)
				}
				if !reflect.DeepEqual(pkt, mo.Pkt) {
					t.Errorf("%s: fixture %d after %d: DecodeInto left %+v, Decode returned %+v", tc.plugin.Name(), j, i, pkt, mo.Pkt)
				}
				if err == nil && mo.Proto != tc.plugin.ID() {
					t.Errorf("%s: Decode tagged fixture %d %v", tc.plugin.Name(), j, mo.Proto)
				}
				if err != nil && !reflect.DeepEqual(mo, MediaObs{}) {
					t.Errorf("%s: fixture %d refused, yet Decode returned %+v", tc.plugin.Name(), j, mo)
				}
			}
		}
	}
}
