package zoom

import (
	"bytes"
	"testing"
	"testing/quick"

	"zoomlens/internal/rtp"
)

func videoPacket(serverBased bool) Packet {
	p := Packet{
		ServerBased: serverBased,
		Media: MediaEncap{
			Type:           TypeVideo,
			Sequence:       100,
			Timestamp:      900000,
			FrameSequence:  17,
			PacketsInFrame: 3,
		},
		RTP: rtp.Packet{
			Header: rtp.Header{
				PayloadType:    PTVideoMain,
				SequenceNumber: 555,
				Timestamp:      900000,
				SSRC:           16778241,
				Marker:         true,
			},
			Payload: []byte("h264 fu nal + encrypted payload"),
		},
	}
	if serverBased {
		p.SFU = SFUEncap{Type: SFUTypeMedia, Sequence: 42, Direction: DirFromSFU}
	}
	return p
}

func TestVideoRoundTripServerBased(t *testing.T) {
	p := videoPacket(true)
	wire, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	// Table 2: video RTP begins 24 bytes after the media encap start;
	// server-based traffic adds the 8-byte SFU encap.
	if wantOff := SFUEncapLen + 24; len(wire) != wantOff+p.RTP.MarshaledLen() {
		t.Errorf("wire length %d, want %d+%d", len(wire), wantOff, p.RTP.MarshaledLen())
	}
	got, err := ParsePacket(wire, ModeAuto)
	if err != nil {
		t.Fatalf("ParsePacket: %v", err)
	}
	if !got.ServerBased {
		t.Error("ServerBased = false")
	}
	if got.SFU.Sequence != 42 || !got.SFU.FromSFU() {
		t.Errorf("SFU = %+v", got.SFU)
	}
	if got.Media.Type != TypeVideo || got.Media.FrameSequence != 17 || got.Media.PacketsInFrame != 3 {
		t.Errorf("Media = %+v", got.Media)
	}
	if got.Media.Sequence != 100 || got.Media.Timestamp != 900000 {
		t.Errorf("Media seq/ts = %d/%d", got.Media.Sequence, got.Media.Timestamp)
	}
	if got.RTP.SSRC != 16778241 || got.RTP.PayloadType != PTVideoMain || !got.RTP.Marker {
		t.Errorf("RTP = %+v", got.RTP.Header)
	}
	if !bytes.Equal(got.RTP.Payload, p.RTP.Payload) {
		t.Errorf("payload = %q", got.RTP.Payload)
	}
}

func TestVideoRoundTripP2P(t *testing.T) {
	p := videoPacket(false)
	wire, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if len(wire) != 24+p.RTP.MarshaledLen() {
		t.Errorf("p2p wire length %d", len(wire))
	}
	got, err := ParsePacket(wire, ModeAuto)
	if err != nil {
		t.Fatalf("ParsePacket: %v", err)
	}
	if got.ServerBased {
		t.Error("ServerBased = true for P2P layout")
	}
	if got.Media.Type != TypeVideo {
		t.Errorf("Media.Type = %v", got.Media.Type)
	}
}

func TestHeaderLenTable2(t *testing.T) {
	// Offsets straight from Table 2 of the paper (P2P layout = offset
	// from end of UDP header).
	cases := map[MediaType]int{
		TypeVideo:       24,
		TypeAudio:       19,
		TypeScreenShare: 27,
		TypeRTCPSR:      16,
		TypeRTCPSRSDES:  16,
	}
	for mt, want := range cases {
		if got := mt.HeaderLen(); got != want {
			t.Errorf("HeaderLen(%s) = %d, want %d", mt, got, want)
		}
	}
	if got := MediaType(7).HeaderLen(); got != 0 {
		t.Errorf("HeaderLen(unknown) = %d, want 0", got)
	}
}

func TestAudioRoundTrip(t *testing.T) {
	// Silent-mode audio (type 99) carries a fixed 40-byte RTP payload.
	const silentPayloadLen = 40
	for _, pt := range []uint8{PTAudioSpeak, PTAudioSilent, PTAudioMobile} {
		payload := []byte("opus-ish")
		if pt == PTAudioSilent {
			payload = make([]byte, silentPayloadLen)
		}
		p := Packet{
			ServerBased: true,
			SFU:         SFUEncap{Type: SFUTypeMedia, Direction: DirToSFU},
			Media:       MediaEncap{Type: TypeAudio, Sequence: 9, Timestamp: 16000},
			RTP: rtp.Packet{
				Header:  rtp.Header{PayloadType: pt, SequenceNumber: 1, SSRC: 3},
				Payload: payload,
			},
		}
		wire, err := p.Marshal()
		if err != nil {
			t.Fatalf("pt %d: Marshal: %v", pt, err)
		}
		got, err := ParsePacket(wire, ModeServer)
		if err != nil {
			t.Fatalf("pt %d: ParsePacket: %v", pt, err)
		}
		if got.Media.Type != TypeAudio || got.RTP.PayloadType != pt {
			t.Errorf("pt %d: got type %v pt %d", pt, got.Media.Type, got.RTP.PayloadType)
		}
		if pt == PTAudioSilent && len(got.RTP.Payload) != silentPayloadLen {
			t.Errorf("silent payload len = %d", len(got.RTP.Payload))
		}
	}
}

func TestRTCPRoundTrip(t *testing.T) {
	for _, mt := range []MediaType{TypeRTCPSR, TypeRTCPSRSDES} {
		p := Packet{
			ServerBased: true,
			SFU:         SFUEncap{Type: SFUTypeMedia, Direction: DirFromSFU},
			Media:       MediaEncap{Type: mt, Sequence: 2, Timestamp: 77},
			RTCP: rtp.CompoundPacket{SenderReports: []rtp.SenderReport{{
				SSRC: 9001, RTPTS: 123, PacketCount: 10, OctetCount: 100,
			}}},
		}
		wire, err := p.Marshal()
		if err != nil {
			t.Fatalf("%v: Marshal: %v", mt, err)
		}
		got, err := ParsePacket(wire, ModeAuto)
		if err != nil {
			t.Fatalf("%v: ParsePacket: %v", mt, err)
		}
		if !got.Media.Type.IsRTCP() {
			t.Errorf("%v: IsRTCP = false", mt)
		}
		if got.IsMedia() {
			t.Errorf("%v: IsMedia = true for RTCP", mt)
		}
		if len(got.RTCP.SenderReports) != 1 || got.RTCP.SenderReports[0].SSRC != 9001 {
			t.Errorf("%v: SRs = %+v", mt, got.RTCP.SenderReports)
		}
		wantSDES := mt == TypeRTCPSRSDES
		if (len(got.RTCP.SDES) == 1) != wantSDES {
			t.Errorf("%v: SDES = %+v", mt, got.RTCP.SDES)
		}
	}
}

func TestParsePacketRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x05},
		{99, 0, 0, 0, 0, 0, 0, 0},
		bytes.Repeat([]byte{0xff}, 40),
		func() []byte { // valid SFU encap but bogus media type
			b := make([]byte, 40)
			b[0] = SFUTypeMedia
			b[8] = 200
			return b
		}(),
	}
	for i, c := range cases {
		if _, err := ParsePacket(c, ModeAuto); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestParsePacketModeMismatch(t *testing.T) {
	p := videoPacket(false)
	wire, _ := p.Marshal()
	if _, err := ParsePacket(wire, ModeServer); err == nil {
		t.Error("ModeServer accepted a P2P payload")
	}
	ps := videoPacket(true)
	wireS, _ := ps.Marshal()
	if _, err := ParsePacket(wireS, ModeP2P); err == nil {
		t.Error("ModeP2P accepted a server-based payload")
	}
}

func TestOpaqueBytesPreserved(t *testing.T) {
	p := videoPacket(false)
	wire, _ := p.Marshal()
	// Scribble into undecoded header positions (e.g. bytes 1..8, 15..20).
	for _, i := range []int{1, 2, 5, 8, 15, 18, 20} {
		wire[i] = byte(0xa0 + i)
	}
	got, err := ParsePacket(wire, ModeP2P)
	if err != nil {
		t.Fatalf("ParsePacket: %v", err)
	}
	out, err := got.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if !bytes.Equal(out, wire) {
		t.Error("opaque header bytes not preserved across parse/marshal")
	}
}

func TestClassifySubstreamTable3(t *testing.T) {
	cases := []struct {
		mt   MediaType
		pt   uint8
		want Substream
	}{
		{TypeVideo, 98, SubVideoMain},
		{TypeVideo, 110, SubVideoFEC},
		{TypeAudio, 112, SubAudioSpeaking},
		{TypeAudio, 99, SubAudioSilent},
		{TypeAudio, 113, SubAudioMobile},
		{TypeAudio, 110, SubAudioFEC},
		{TypeScreenShare, 99, SubScreenShareMain},
		{TypeVideo, 99, SubUnknown},
		{TypeScreenShare, 98, SubUnknown},
		{TypeRTCPSR, 98, SubUnknown},
	}
	for _, c := range cases {
		if got := ClassifySubstream(c.mt, c.pt); got != c.want {
			t.Errorf("ClassifySubstream(%v,%d) = %v, want %v", c.mt, c.pt, got, c.want)
		}
	}
	if !SubVideoFEC.IsFEC() || !SubAudioFEC.IsFEC() || SubVideoMain.IsFEC() {
		t.Error("IsFEC misclassifies")
	}
}

func TestQuickVideoRoundTrip(t *testing.T) {
	f := func(seq, frameSeq uint16, ts uint32, nPkts uint8, ssrc uint32, payload []byte, server bool) bool {
		p := Packet{
			ServerBased: server,
			SFU:         SFUEncap{Type: SFUTypeMedia, Sequence: seq, Direction: DirToSFU},
			Media: MediaEncap{
				Type: TypeVideo, Sequence: seq, Timestamp: ts,
				FrameSequence: frameSeq, PacketsInFrame: nPkts,
			},
			RTP: rtp.Packet{
				Header:  rtp.Header{PayloadType: PTVideoMain, SequenceNumber: seq, Timestamp: ts, SSRC: ssrc},
				Payload: payload,
			},
		}
		wire, err := p.Marshal()
		if err != nil {
			return false
		}
		got, err := ParsePacket(wire, ModeAuto)
		if err != nil {
			return false
		}
		return got.ServerBased == server &&
			got.Media.FrameSequence == frameSeq &&
			got.Media.PacketsInFrame == nPkts &&
			got.RTP.SSRC == ssrc &&
			bytes.Equal(got.RTP.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestStreamKeyString(t *testing.T) {
	k := StreamKey{SSRC: 7, Type: TypeAudio}
	if got := k.String(); got != "audio/ssrc=7" {
		t.Errorf("String = %q", got)
	}
}

func BenchmarkParsePacketVideo(b *testing.B) {
	p := videoPacket(true)
	p.RTP.Payload = make([]byte, 1100)
	wire, _ := p.Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParsePacket(wire, ModeServer); err != nil {
			b.Fatal(err)
		}
	}
}
