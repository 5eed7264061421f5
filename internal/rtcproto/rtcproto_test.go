package rtcproto

import (
	"reflect"
	"strings"
	"testing"

	"zoomlens/internal/rtp"
	"zoomlens/internal/sim"
	"zoomlens/internal/zoom"
)

// write returns the simulator's headers for h followed by n bytes of
// payload.
func write(h sim.Header, n int) []byte {
	return append(sim.AppendHeaders(nil, &h), make([]byte, n)...)
}

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
	if HasNonZoom([]Plugin{zoomPlugin{}}) {
		t.Error("HasNonZoom(zoom only) = true")
	}
	if !HasNonZoom(DefaultSet()) {
		t.Error("HasNonZoom(default set) = false")
	}
	if !HasNonZoom([]Plugin{webrtcPlugin{}}) {
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
		z := (zoomPlugin{}).Probe(payload)
		w := (webrtcPlugin{}).Probe(payload)
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
	h := sim.Header{Layout: sim.LayoutBare, Kind: sim.KindAudio,
		PT:  111, // conventional Opus: audio
		Seq: 4242, TS: 96000, SSRC: 0xdecafbad, Marker: true}
	raw := write(h, 80)
	if !(webrtcPlugin{}).Probe(raw) {
		t.Fatal("webrtc probe rejected a written RTP packet")
	}
	if (zoomPlugin{}).Probe(raw) {
		t.Fatal("zoom probe claimed a standards RTP packet")
	}
	mo, err := (webrtcPlugin{}).Decode(raw)
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
	h.PT = 96
	mo, err = (webrtcPlugin{}).Decode(write(h, 1100))
	if err != nil {
		t.Fatal(err)
	}
	if mo.Pkt.Media.Type != zoom.TypeVideo {
		t.Errorf("media type = %v, want TypeVideo", mo.Pkt.Media.Type)
	}

	// RTCP sender report, with and without the SDES chunk.
	for _, withSDES := range []bool{false, true} {
		sr := sim.Header{Layout: sim.LayoutBare, Kind: sim.KindSR, SSRC: 7, TS: 1234, Packets: 10, Octets: 1000}
		if withSDES {
			sr.Kind = sim.KindSRSDES
		}
		mo, err := (webrtcPlugin{}).Decode(write(sr, 0))
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
	raw := write(sim.Header{Layout: sim.LayoutP2P, Kind: sim.KindAudio, MediaSeq: 9, MediaTS: 48000,
		PT: sim.PTAudioSpeak, Seq: 9, TS: 48000, SSRC: 5}, 60)
	if !(zoomPlugin{}).Probe(raw) {
		t.Fatal("zoom probe rejected a written Zoom packet")
	}
	if (webrtcPlugin{}).Probe(raw) {
		t.Fatal("webrtc probe claimed a Zoom packet")
	}
	mo, err := (zoomPlugin{}).Decode(raw)
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
	// busy is an RTP header the simulator never writes: marker, PT 96,
	// CSRCs 5 and 6 and a one-word extension.
	busy := []byte{0x92, 0xe0, 0, 9, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 6, 0xbe, 0xde, 0, 1, 1, 2, 3, 4}
	busyRTP := append(append([]byte(nil), busy...), make([]byte, 1100)...)
	// busyZoom is the writer's SFU and media encapsulations of a video
	// packet with busy in place of its RTP header.
	busyZoom := write(sim.Header{Kind: sim.KindVideo, FromSFU: true, MediaSeq: 3, MediaTS: 90000, FramePkts: 2}, 0)
	busyZoom = append(append(busyZoom[:len(busyZoom)-rtp.HeaderLen], busy...), make([]byte, 300)...)
	sr := func(layout sim.Layout, k sim.Kind) []byte {
		return write(sim.Header{Layout: layout, Kind: k, SSRC: 7, TS: 1234, Packets: 10, Octets: 1000}, 0)
	}
	zoomMedia := func(k sim.Kind, layout sim.Layout, pt uint8, ssrc uint32) []byte {
		return write(sim.Header{Layout: layout, Kind: k, FromSFU: true, MediaSeq: 3, MediaTS: 90000, FramePkts: 2, PT: pt, SSRC: ssrc}, 300)
	}
	for _, tc := range []struct {
		plugin   Plugin
		fixtures [][]byte
	}{
		{zoomPlugin{}, [][]byte{
			busyZoom,
			zoomMedia(sim.KindAudio, sim.LayoutP2P, sim.PTAudioSpeak, 5),
			zoomMedia(sim.KindScreen, sim.LayoutServer, sim.PTScreenShare, 6),
			sr(sim.LayoutServer, sim.KindSR),
			sr(sim.LayoutServer, sim.KindSRSDES),
			busyZoom[:zoom.SFUEncapLen+30], // claimed by the probe, refused by the decode
			{byte(zoom.TypeVideo)},
		}},
		{webrtcPlugin{}, [][]byte{
			busyRTP,
			write(sim.Header{Layout: sim.LayoutBare, Kind: sim.KindAudio, PT: 111, SSRC: 3}, 80),
			sr(sim.LayoutBare, sim.KindSR),
			sr(sim.LayoutBare, sim.KindSRSDES),
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
