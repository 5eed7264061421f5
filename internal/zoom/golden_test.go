package zoom_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"zoomlens/internal/rtp"
	"zoomlens/internal/sim"
	"zoomlens/internal/zoom"
)

// The golden frames: one UDP payload per Table 2 type, in the
// server-based and the peer-to-peer layout, written out byte by byte
// with the row each range comes from. Each must be exactly what the
// simulator's writer produces from the frame's header values, and must
// parse to the frame's decoded fields; so the writer's transcription of
// the paper and the parser are pinned to the same bytes, and to each
// other. Field values are distinct, and the media encapsulation's
// timestamp differs from the RTP one, so a misread offset cannot decode
// to the right value by accident.

// The SFU encapsulations that prefix the server-based frames.
var (
	sfuFromSFU = []byte{
		0x05,       // Table 1, SFU "Type": 0x05, a media encapsulation follows
		0x00, 0x2a, // Table 1, SFU "Sequence #" (bytes 1-2): 42
		0, 0, 0, 0, // bytes 3-6: not decoded
		0x04, // Table 1, SFU "Direction" (byte 7): 0x04, from the SFU
	}
	sfuToSFU = []byte{
		0x05,       // Table 1, SFU "Type": 0x05, a media encapsulation follows
		0x01, 0x00, // Table 1, SFU "Sequence #" (bytes 1-2): 256
		0, 0, 0, 0, // bytes 3-6: not decoded
		0x00, // Table 1, SFU "Direction" (byte 7): 0x00, to the SFU
	}
)

// srTime is the sender reports' wall clock: 2022-05-05 15:00:00.5 UTC,
// NTP 0xe61e64f0.80000000.
var srTime = time.Date(2022, 5, 5, 15, 0, 0, 5e8, time.UTC)

// golden is one Table 2 type: its peer-to-peer payload (the media
// encapsulation onward), the SFU encapsulation its server-based frame
// adds, the writer's input and the parser's output.
type golden struct {
	name  string
	sfu   []byte
	inner []byte
	h     sim.Header // LayoutServer; the P2P frame is the same with LayoutP2P
	body  []byte     // what the writer's caller appends after the headers
	want  zoom.Packet
}

var goldens = []golden{{
	name: "video",
	sfu:  sfuFromSFU,
	inner: []byte{
		0x10,                   // Table 1, media "Type"; Table 2: 16, RTP video, RTP at 24
		0, 0, 0, 0, 0, 0, 0, 0, // bytes 1-8: not decoded
		0x00, 0x64, // Table 1, media "Sequence #" (bytes 9-10): 100
		0x00, 0x0d, 0xbb, 0xa0, // Table 1, "Timestamp" (bytes 11-14): 900000
		0, 0, 0, 0, 0, 0, // bytes 15-20: not decoded
		0x00, 0x07, // Table 1, "Frame seq. #" (bytes 21-22): 7
		0x03,       // Table 1, "# Packets/frame" (byte 23): 3
		0x80,       // RTP at 24 (Table 2): V=2, no padding, extension or CSRC
		0xe2,       // marker set; PT 98, video main (Table 3)
		0x15, 0xb3, // RTP sequence number: 5555
		0x00, 0x0d, 0xbc, 0x9a, // RTP timestamp: 900250
		0x01, 0x00, 0x04, 0x01, // SSRC: 16778241
		0xde, 0xad, 0xbe, 0xef, // ciphertext
	},
	h: sim.Header{Kind: sim.KindVideo, SFUSeq: 42, FromSFU: true, MediaSeq: 100, MediaTS: 900000, FrameSeq: 7, FramePkts: 3,
		PT: sim.PTVideoMain, Marker: true, Seq: 5555, TS: 900250, SSRC: 16778241},
	body: []byte{0xde, 0xad, 0xbe, 0xef},
	want: zoom.Packet{
		SFU:   zoom.SFUEncap{Type: zoom.SFUTypeMedia, Sequence: 42, Direction: zoom.DirFromSFU},
		Media: zoom.MediaEncap{Type: zoom.TypeVideo, Sequence: 100, Timestamp: 900000, FrameSequence: 7, PacketsInFrame: 3},
		RTP: rtp.Packet{Header: rtp.Header{Marker: true, PayloadType: zoom.PTVideoMain, SequenceNumber: 5555, Timestamp: 900250, SSRC: 16778241},
			Payload: []byte{0xde, 0xad, 0xbe, 0xef}},
	},
}, {
	name: "audio",
	sfu:  sfuToSFU,
	inner: []byte{
		0x0f,                   // Table 1, media "Type"; Table 2: 15, RTP audio, RTP at 19
		0, 0, 0, 0, 0, 0, 0, 0, // bytes 1-8: not decoded
		0x00, 0x09, // Table 1, media "Sequence #" (bytes 9-10): 9
		0x00, 0x00, 0x3e, 0x80, // Table 1, "Timestamp" (bytes 11-14): 16000
		0, 0, 0, 0, // bytes 15-18: not decoded
		0x80,       // RTP at 19 (Table 2): V=2, no padding, extension or CSRC
		0x70,       // marker clear; PT 112, audio while talking (Table 3)
		0x00, 0x01, // RTP sequence number: 1
		0x00, 0x00, 0x3f, 0x20, // RTP timestamp: 16160
		0x01, 0x00, 0x04, 0x02, // SSRC: 16778242
		0x0a, 0x0b, 0x0c, // ciphertext
	},
	h:    sim.Header{Kind: sim.KindAudio, SFUSeq: 256, MediaSeq: 9, MediaTS: 16000, PT: sim.PTAudioSpeak, Seq: 1, TS: 16160, SSRC: 16778242},
	body: []byte{0x0a, 0x0b, 0x0c},
	want: zoom.Packet{
		SFU:   zoom.SFUEncap{Type: zoom.SFUTypeMedia, Sequence: 256, Direction: 0x00},
		Media: zoom.MediaEncap{Type: zoom.TypeAudio, Sequence: 9, Timestamp: 16000},
		RTP: rtp.Packet{Header: rtp.Header{PayloadType: zoom.PTAudioSpeak, SequenceNumber: 1, Timestamp: 16160, SSRC: 16778242},
			Payload: []byte{0x0a, 0x0b, 0x0c}},
	},
}, {
	name: "screenshare",
	sfu:  sfuFromSFU,
	inner: []byte{
		0x0d,                   // Table 1, media "Type"; Table 2: 13, RTP screen share, RTP at 27
		0, 0, 0, 0, 0, 0, 0, 0, // bytes 1-8: not decoded
		0x02, 0x00, // Table 1, media "Sequence #" (bytes 9-10): 512
		0x00, 0x01, 0x5f, 0x90, // Table 1, "Timestamp" (bytes 11-14): 90000
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // bytes 15-26: not decoded (no frame fields outside video)
		0x80,       // RTP at 27 (Table 2): V=2, no padding, extension or CSRC
		0xe3,       // marker set; PT 99, screen share main (Table 3)
		0x30, 0x39, // RTP sequence number: 12345
		0x00, 0x01, 0x86, 0xa0, // RTP timestamp: 100000
		0x01, 0x00, 0x04, 0x03, // SSRC: 16778243
		0x55, // ciphertext
	},
	h: sim.Header{Kind: sim.KindScreen, SFUSeq: 42, FromSFU: true, MediaSeq: 512, MediaTS: 90000,
		PT: sim.PTScreenShare, Marker: true, Seq: 12345, TS: 100000, SSRC: 16778243},
	body: []byte{0x55},
	want: zoom.Packet{
		SFU:   zoom.SFUEncap{Type: zoom.SFUTypeMedia, Sequence: 42, Direction: zoom.DirFromSFU},
		Media: zoom.MediaEncap{Type: zoom.TypeScreenShare, Sequence: 512, Timestamp: 90000},
		RTP: rtp.Packet{Header: rtp.Header{Marker: true, PayloadType: zoom.PTScreenShare, SequenceNumber: 12345, Timestamp: 100000, SSRC: 16778243},
			Payload: []byte{0x55}},
	},
}, {
	name: "rtcp-sr",
	sfu:  sfuToSFU,
	inner: []byte{
		0x21,                   // Table 1, media "Type"; Table 2: 33, RTCP sender report, RTCP at 16
		0, 0, 0, 0, 0, 0, 0, 0, // bytes 1-8: not decoded
		0x00, 0x65, // Table 1, media "Sequence #" (bytes 9-10): 101
		0x00, 0x0d, 0xbb, 0xa0, // Table 1, "Timestamp" (bytes 11-14): 900000
		0,          // byte 15: not decoded
		0x80,       // RTCP at 16 (Table 2): V=2, no padding, no report blocks
		0xc8,       // packet type 200, sender report
		0x00, 0x06, // length: 7 words
		0x01, 0x00, 0x04, 0x01, // SSRC of sender: 16778241
		0xe6, 0x1e, 0x64, 0xf0, 0x80, 0x00, 0x00, 0x00, // NTP timestamp: srTime
		0x00, 0x0d, 0xbc, 0x9a, // RTP timestamp: 900250
		0x00, 0x00, 0x01, 0x2c, // sender's packet count: 300
		0x00, 0x04, 0x93, 0xe0, // sender's octet count: 300000
	},
	h: sim.Header{Kind: sim.KindSR, SFUSeq: 256, MediaSeq: 101, MediaTS: 900000,
		TS: 900250, SSRC: 16778241, NTP: srTime, Packets: 300, Octets: 300000},
	want: zoom.Packet{
		SFU:   zoom.SFUEncap{Type: zoom.SFUTypeMedia, Sequence: 256, Direction: 0x00},
		Media: zoom.MediaEncap{Type: zoom.TypeRTCPSR, Sequence: 101, Timestamp: 900000},
		RTCP: rtp.CompoundPacket{SenderReports: []rtp.SenderReport{{
			SSRC: 16778241, NTPTS: 0xe61e64f0_80000000, RTPTS: 900250, PacketCount: 300, OctetCount: 300000}}},
	},
}, {
	name: "rtcp-sr-sdes",
	sfu:  sfuFromSFU,
	inner: []byte{
		0x22,                   // Table 1, media "Type"; Table 2: 34, RTCP sender report + SDES, RTCP at 16
		0, 0, 0, 0, 0, 0, 0, 0, // bytes 1-8: not decoded
		0x00, 0x0a, // Table 1, media "Sequence #" (bytes 9-10): 10
		0x00, 0x00, 0x3e, 0x80, // Table 1, "Timestamp" (bytes 11-14): 16000
		0,          // byte 15: not decoded
		0x80,       // RTCP at 16 (Table 2): V=2, no padding, no report blocks
		0xc8,       // packet type 200, sender report
		0x00, 0x06, // length: 7 words
		0x01, 0x00, 0x04, 0x02, // SSRC of sender: 16778242
		0xe6, 0x1e, 0x64, 0xf0, 0x80, 0x00, 0x00, 0x00, // NTP timestamp: srTime
		0x00, 0x00, 0x3f, 0x20, // RTP timestamp: 16160
		0x00, 0x00, 0x00, 0x32, // sender's packet count: 50
		0x00, 0x00, 0x07, 0xd0, // sender's octet count: 2000
		0x81,       // SDES: V=2, no padding, one chunk
		0xca,       // packet type 202, source description
		0x00, 0x02, // length: 3 words
		0x01, 0x00, 0x04, 0x02, // chunk SSRC: 16778242
		0, 0, 0, 0, // no items: the terminator, padded to a word (§4.2.3)
	},
	h: sim.Header{Kind: sim.KindSRSDES, SFUSeq: 42, FromSFU: true, MediaSeq: 10, MediaTS: 16000,
		TS: 16160, SSRC: 16778242, NTP: srTime, Packets: 50, Octets: 2000},
	want: zoom.Packet{
		SFU:   zoom.SFUEncap{Type: zoom.SFUTypeMedia, Sequence: 42, Direction: zoom.DirFromSFU},
		Media: zoom.MediaEncap{Type: zoom.TypeRTCPSRSDES, Sequence: 10, Timestamp: 16000},
		RTCP: rtp.CompoundPacket{
			SenderReports: []rtp.SenderReport{{SSRC: 16778242, NTPTS: 0xe61e64f0_80000000, RTPTS: 16160, PacketCount: 50, OctetCount: 2000}},
			SDES:          []rtp.SDESItem{{SSRC: 16778242}},
		},
	},
}}

// goldenFrame is one of the ten golden frames.
type goldenFrame struct {
	name string
	wire []byte
	h    sim.Header
	body []byte
	want zoom.Packet
}

// goldenFrames expands each type into its server-based frame ("sfu-"
// name) and its peer-to-peer frame ("p2p-" name).
func goldenFrames() []goldenFrame {
	var out []goldenFrame
	for _, g := range goldens {
		server := goldenFrame{"sfu-" + g.name, append(append([]byte(nil), g.sfu...), g.inner...), g.h, g.body, g.want}
		server.want.ServerBased = true
		p2p := goldenFrame{"p2p-" + g.name, append([]byte(nil), g.inner...), g.h, g.body, g.want}
		p2p.h.Layout = sim.LayoutP2P
		p2p.h.SFUSeq, p2p.h.FromSFU, p2p.want.SFU = 0, false, zoom.SFUEncap{}
		out = append(out, server, p2p)
	}
	return out
}

// goldenFrameNamed returns the golden frame called name.
func goldenFrameNamed(t testing.TB, name string) goldenFrame {
	t.Helper()
	for _, f := range goldenFrames() {
		if f.name == name {
			return f
		}
	}
	t.Fatalf("no golden frame %q", name)
	return goldenFrame{}
}

// checkGolden holds the writer and the parser to the named frames: the
// writer must produce each byte for byte, and the parser must decode it
// to its fields.
func checkGolden(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		f := goldenFrameNamed(t, name)
		if got := append(sim.AppendHeaders(nil, &f.h), f.body...); !bytes.Equal(got, f.wire) {
			t.Errorf("%s: the writer gives\n% x\nwant\n% x", name, got, f.wire)
		}
		if n := f.h.Len() + len(f.body); n != len(f.wire) {
			t.Errorf("%s: Header.Len + body = %d, the frame is %d bytes", name, n, len(f.wire))
		}
		got, err := zoom.ParsePacket(f.wire, zoom.ModeAuto)
		if err != nil {
			t.Errorf("%s: ParsePacket: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, f.want) {
			t.Errorf("%s: parsed\n%+v\nwant\n%+v", name, got, f.want)
		}
	}
}

func TestVideoRoundTripServerBased(t *testing.T) { checkGolden(t, "sfu-video") }

func TestVideoRoundTripP2P(t *testing.T) { checkGolden(t, "p2p-video") }

func TestScreenShareRoundTrip(t *testing.T) { checkGolden(t, "sfu-screenshare", "p2p-screenshare") }

func TestAudioRoundTrip(t *testing.T) {
	checkGolden(t, "sfu-audio", "p2p-audio")
	// Every audio substream of Table 3 through the writer; silent mode
	// carries a fixed 40-byte payload.
	const silentPayloadLen = 40
	for _, pt := range []uint8{sim.PTAudioSpeak, sim.PTAudioSilent, sim.PTAudioMobile} {
		f := goldenFrameNamed(t, "sfu-audio")
		f.h.PT = pt
		payload := []byte("opus-ish")
		if pt == sim.PTAudioSilent {
			payload = make([]byte, silentPayloadLen)
		}
		got, err := zoom.ParsePacket(append(sim.AppendHeaders(nil, &f.h), payload...), zoom.ModeServer)
		if err != nil {
			t.Fatalf("pt %d: ParsePacket: %v", pt, err)
		}
		if got.Media.Type != zoom.TypeAudio || got.RTP.PayloadType != pt || !bytes.Equal(got.RTP.Payload, payload) {
			t.Errorf("pt %d: got type %v pt %d payload %d bytes", pt, got.Media.Type, got.RTP.PayloadType, len(got.RTP.Payload))
		}
	}
}

func TestRTCPRoundTrip(t *testing.T) {
	checkGolden(t, "sfu-rtcp-sr", "p2p-rtcp-sr", "sfu-rtcp-sr-sdes", "p2p-rtcp-sr-sdes")
	for _, name := range []string{"sfu-rtcp-sr", "p2p-rtcp-sr-sdes"} {
		got, err := zoom.ParsePacket(goldenFrameNamed(t, name).wire, zoom.ModeAuto)
		if err != nil {
			t.Fatalf("%s: ParsePacket: %v", name, err)
		}
		if !got.Media.Type.IsRTCP() || got.IsMedia() {
			t.Errorf("%s: IsRTCP = %v, IsMedia = %v", name, got.Media.Type.IsRTCP(), got.IsMedia())
		}
	}
}

// TestGoldenFramesCoverTable2 holds the golden frames to the
// transcription: one per Table 2 type, in both layouts.
func TestGoldenFramesCoverTable2(t *testing.T) {
	frames := goldenFrames()
	for k, hl := range sim.MediaHeaderLens {
		n := 0
		for _, f := range frames {
			if f.h.Kind == sim.Kind(k) {
				n++
			}
		}
		if want := 2 * min(hl, 1); n != want {
			t.Errorf("Table 2 type %d: %d golden frames, want %d", k, n, want)
		}
	}
	if len(frames) != 10 {
		t.Errorf("%d golden frames, want 10", len(frames))
	}
}

func TestQuickVideoRoundTrip(t *testing.T) {
	f := func(seq, frameSeq uint16, mediaTS, ts uint32, nPkts uint8, ssrc uint32, payload []byte, server bool) bool {
		h := sim.Header{Layout: sim.LayoutP2P, Kind: sim.KindVideo, MediaSeq: seq, MediaTS: mediaTS, FrameSeq: frameSeq, FramePkts: nPkts,
			PT: sim.PTVideoMain, Seq: seq ^ 0xffff, TS: ts, SSRC: ssrc}
		if server {
			h.Layout, h.SFUSeq = sim.LayoutServer, seq+1
		}
		got, err := zoom.ParsePacket(append(sim.AppendHeaders(nil, &h), payload...), zoom.ModeAuto)
		if err != nil {
			return false
		}
		return got.ServerBased == server &&
			(!server || got.SFU.Sequence == seq+1) &&
			got.Media.Sequence == seq && got.Media.Timestamp == mediaTS &&
			got.Media.FrameSequence == frameSeq && got.Media.PacketsInFrame == nPkts &&
			got.RTP.SequenceNumber == seq^0xffff && got.RTP.Timestamp == ts && got.RTP.SSRC == ssrc &&
			bytes.Equal(got.RTP.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestOpaqueBytesPreserved scribbles into every byte of a golden frame's
// encapsulations that the paper does not decode: the decoded fields are
// preserved.
func TestOpaqueBytesPreserved(t *testing.T) {
	f := goldenFrameNamed(t, "sfu-video")
	wire := append([]byte(nil), f.wire...)
	opaque := []int{3, 4, 5, 6} // SFU bytes 3-6
	for _, i := range []int{1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 18, 19, 20} {
		opaque = append(opaque, zoom.SFUEncapLen+i) // media encapsulation bytes 1-8 and 15-20
	}
	for _, i := range opaque {
		wire[i] = byte(0xa0 + i)
	}
	got, err := zoom.ParsePacket(wire, zoom.ModeServer)
	if err != nil {
		t.Fatalf("ParsePacket: %v", err)
	}
	if !reflect.DeepEqual(got, f.want) {
		t.Errorf("parsed\n%+v\nwant\n%+v", got, f.want)
	}
}

func TestParsePacketModeMismatch(t *testing.T) {
	if _, err := zoom.ParsePacket(goldenFrameNamed(t, "p2p-video").wire, zoom.ModeServer); err == nil {
		t.Error("ModeServer accepted a P2P payload")
	}
	if _, err := zoom.ParsePacket(goldenFrameNamed(t, "sfu-video").wire, zoom.ModeP2P); err == nil {
		t.Error("ModeP2P accepted a server-based payload")
	}
}

func BenchmarkParsePacketVideo(b *testing.B) {
	f := goldenFrameNamed(b, "sfu-video")
	body := make([]byte, 1100)
	rand.New(rand.NewSource(1)).Read(body)
	wire := append(sim.AppendHeaders(nil, &f.h), body...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := zoom.ParsePacket(wire, zoom.ModeServer); err != nil {
			b.Fatal(err)
		}
	}
}
