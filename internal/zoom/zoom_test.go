package zoom

import (
	"bytes"
	"testing"

	"zoomlens/internal/sim"
)

// TestHeaderLenTable2 holds the parser's header lengths to the
// simulator's transcription of Table 2, row by row.
func TestHeaderLenTable2(t *testing.T) {
	for mt := 0; mt < 256; mt++ {
		want := 0
		if mt < len(sim.MediaHeaderLens) {
			want = sim.MediaHeaderLens[mt]
		}
		if got := MediaType(mt).HeaderLen(); got != want {
			t.Errorf("HeaderLen(%d) = %d; Table 2: %d", mt, got, want)
		}
	}
}

// TestFieldOffsetsTable1 holds the offsets the parser and the Lua
// dissector read to the simulator's transcription of Table 1, and the
// type and payload-type values to its Table 1 and Table 3 constants.
func TestFieldOffsetsTable1(t *testing.T) {
	type offset struct {
		off, width int
	}
	want := map[string]offset{
		"Zoom SFU Encapsulation/Type":              {0, 1},
		"Zoom SFU Encapsulation/Sequence #":        {sfuSeqOff, 2},
		"Zoom SFU Encapsulation/Direction":         {sfuDirOff, 1},
		"Zoom Media Encapsulation/Type":            {0, 1},
		"Zoom Media Encapsulation/Sequence #":      {mediaSeqOff, 2},
		"Zoom Media Encapsulation/Timestamp":       {mediaTSOff, 4},
		"Zoom Media Encapsulation/Frame seq. #":    {frameSeqOff, 2},
		"Zoom Media Encapsulation/# Packets/frame": {framePktsOff, 1},
	}
	n := 0
	for _, e := range []sim.Encapsulation{sim.SFUEncapsulation, sim.MediaEncapsulation} {
		for _, f := range e.Fields {
			key := e.Name + "/" + f.Name
			w, ok := want[key]
			if !ok {
				t.Errorf("the transcription has %s, which the parser does not read", key)
				continue
			}
			n++
			if f.Offset != w.off || f.Width != w.width {
				t.Errorf("%s: transcription at %d (%d bytes), parser at %d (%d bytes)", key, f.Offset, f.Width, w.off, w.width)
			}
		}
	}
	if n != len(want) {
		t.Errorf("the transcription has %d of the %d fields the parser reads", n, len(want))
	}
	if sim.SFUEncapsulation.Len != SFUEncapLen || sim.SFUTypeMedia != SFUTypeMedia {
		t.Errorf("SFU encapsulation: transcription %d bytes, type %#x; parser %d bytes, type %#x",
			sim.SFUEncapsulation.Len, sim.SFUTypeMedia, SFUEncapLen, SFUTypeMedia)
	}
	for _, pt := range [][2]uint8{
		{sim.PTVideoMain, PTVideoMain}, {sim.PTScreenShare, PTScreenShare}, {sim.PTAudioSilent, PTAudioSilent},
		{sim.PTFEC, PTFEC}, {sim.PTAudioSpeak, PTAudioSpeak}, {sim.PTAudioMobile, PTAudioMobile},
	} {
		if pt[0] != pt[1] {
			t.Errorf("Table 3 payload type: transcription %d, parser %d", pt[0], pt[1])
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

func TestStreamKeyString(t *testing.T) {
	k := StreamKey{SSRC: 7, Type: TypeAudio}
	if got := k.String(); got != "audio/ssrc=7" {
		t.Errorf("String = %q", got)
	}
}
