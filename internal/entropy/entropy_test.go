package entropy

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"zoomlens/internal/sim"
)

func constSeq(v uint64, n int) Sequence {
	s := Sequence{Width: 1}
	for i := 0; i < n; i++ {
		s.Values = append(s.Values, v)
	}
	return s
}

func TestClassifyConstant(t *testing.T) {
	a := Classify(constSeq(5, 100))
	if a.Class != ClassConstant {
		t.Errorf("class = %v, want constant", a.Class)
	}
}

func TestClassifyCounter(t *testing.T) {
	s := Sequence{Width: 2}
	for i := 0; i < 200; i++ {
		s.Values = append(s.Values, uint64(i*7)&0xffff)
	}
	a := Classify(s)
	if a.Class != ClassCounter {
		t.Errorf("class = %v (mono=%v distinct=%v), want counter", a.Class, a.MonotoneRatio, a.DistinctRatio)
	}
}

func TestClassifyCounterWithWraparound(t *testing.T) {
	s := Sequence{Width: 2}
	v := uint64(65000)
	for i := 0; i < 300; i++ {
		s.Values = append(s.Values, v&0xffff)
		v += 13
	}
	a := Classify(s)
	if a.Class != ClassCounter {
		t.Errorf("class = %v, want counter across wraparound", a.Class)
	}
}

func TestClassifyIdentifier(t *testing.T) {
	s := Sequence{Width: 4}
	ids := []uint64{16778241, 16778242, 16778243}
	for i := 0; i < 300; i++ {
		s.Values = append(s.Values, ids[i%3])
	}
	a := Classify(s)
	if a.Class != ClassIdentifier {
		t.Errorf("class = %v, want identifier", a.Class)
	}
}

func TestClassifyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, w := range []int{1, 2, 4} {
		s := Sequence{Width: w}
		mask := uint64(1)<<(8*w) - 1
		for i := 0; i < 2000; i++ {
			s.Values = append(s.Values, rng.Uint64()&mask)
		}
		a := Classify(s)
		if a.Class != ClassRandom {
			t.Errorf("width %d: class = %v (H=%v cover=%v), want random", w, a.Class, a.NormEntropy, a.CoverageRatio)
		}
	}
}

func TestClassifyShortSequenceInsufficient(t *testing.T) {
	a := Classify(Sequence{Width: 1, Values: []uint64{1, 2, 3}})
	if a.Class != ClassMixed {
		t.Errorf("class = %v, want mixed for short sequence", a.Class)
	}
}

func TestExtractWidthsAndOffsets(t *testing.T) {
	payloads := [][]byte{
		{0x01, 0x02, 0x03, 0x04, 0x05, 0x06},
		{0x11, 0x12, 0x13, 0x14, 0x15, 0x16},
		{0xff}, // too short for most slots
	}
	s1 := Extract(payloads, 0, 1)
	if len(s1.Values) != 3 || s1.Values[2] != 0xff {
		t.Errorf("s1 = %+v", s1)
	}
	s2 := Extract(payloads, 1, 2)
	if len(s2.Values) != 2 || s2.Values[0] != 0x0203 {
		t.Errorf("s2 = %+v", s2)
	}
	s4 := Extract(payloads, 2, 4)
	if len(s4.Values) != 2 || s4.Values[1] != 0x13141516 {
		t.Errorf("s4 = %+v", s4)
	}
}

// zoomVideoPayloads synthesizes server-based Zoom video packets with
// encrypted-looking payload, as the campus trace would contain.
func zoomVideoPayloads(t *testing.T, n int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	out := make([][]byte, 0, n)
	ts := uint32(100000)
	for i := 0; i < n; i++ {
		enc := make([]byte, 600)
		rng.Read(enc)
		h := sim.Header{
			Kind: sim.KindVideo, SFUSeq: uint16(i), FromSFU: true,
			MediaSeq: uint16(i), MediaTS: ts, FrameSeq: uint16(i / 3), FramePkts: 3,
			PT: sim.PTVideoMain, Seq: uint16(4000 + i), TS: ts, SSRC: 16778241,
		}
		if i%3 == 2 {
			ts += 3000
		}
		out = append(out, append(sim.AppendHeaders(nil, &h), enc...))
	}
	return out
}

// TestSweepRecoversZoomStructure is the Figure 5 reproduction: the sweep
// must classify the SFU sequence, media sequence/timestamp, RTP
// seq/ts as counters, the type bytes and SSRC as identifiers/constants,
// and the encrypted payload as random.
func TestSweepRecoversZoomStructure(t *testing.T) {
	payloads := zoomVideoPayloads(t, 900)
	get := func(off, width int) Analysis { return Classify(Extract(payloads, off, width)) }

	// SFU encap: type byte constant 0x05; seq at 1-2 counts.
	if a := get(0, 1); a.Class != ClassConstant {
		t.Errorf("sfu type: %v", a.Class)
	}
	if a := get(1, 2); a.Class != ClassCounter {
		t.Errorf("sfu seq: %v", a.Class)
	}
	// Media encap at offset 8: type byte 16 constant; seq at 8+9; ts at 8+11.
	if a := get(8, 1); a.Class != ClassConstant {
		t.Errorf("media type: %v", a.Class)
	}
	if a := get(17, 2); a.Class != ClassCounter {
		t.Errorf("media seq: %v", a.Class)
	}
	if a := get(19, 4); a.Class != ClassCounter {
		t.Errorf("media ts: %v", a.Class)
	}
	// RTP header at 8+24=32: seq at 34, ts at 36, SSRC at 40.
	if a := get(34, 2); a.Class != ClassCounter {
		t.Errorf("rtp seq: %v", a.Class)
	}
	if a := get(36, 4); a.Class != ClassCounter {
		t.Errorf("rtp ts: %v", a.Class)
	}
	if a := get(40, 4); a.Class != ClassConstant {
		t.Errorf("ssrc: %v", a.Class)
	}
	// Encrypted payload well past the headers.
	if a := get(100, 4); a.Class != ClassRandom {
		t.Errorf("payload: %v (H=%v)", a.Class, a.NormEntropy)
	}
}

func TestFindRTPLocatesHeader(t *testing.T) {
	payloads := zoomVideoPayloads(t, 900)
	sigs := FindRTP(payloads, 64)
	// The RTP sequence number lives at offset 34 (8 SFU + 24 media + 2).
	found := false
	for _, s := range sigs {
		if s.Offset == 34 {
			found = true
			if len(s.SSRCValues) != 1 || s.SSRCValues[0] != 16778241 {
				t.Errorf("ssrc values = %v", s.SSRCValues)
			}
		}
	}
	if !found {
		offs := make([]int, len(sigs))
		for i, s := range sigs {
			offs[i] = s.Offset
		}
		t.Errorf("RTP signature not found at 34; candidates = %v", offs)
	}
}

func TestFindRTPNoFalsePositiveOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	payloads := make([][]byte, 500)
	for i := range payloads {
		b := make([]byte, 64)
		rng.Read(b)
		payloads[i] = b
	}
	if sigs := FindRTP(payloads, 48); len(sigs) != 0 {
		t.Errorf("signatures in pure noise: %+v", sigs)
	}
}

func TestSweepOrdering(t *testing.T) {
	payloads := [][]byte{make([]byte, 16), make([]byte, 16)}
	for i := range payloads {
		binary.BigEndian.PutUint32(payloads[i], uint32(i))
	}
	res := Sweep(payloads, 8)
	for i := 1; i < len(res); i++ {
		if res[i].Offset < res[i-1].Offset {
			t.Fatal("sweep results not ordered by offset")
		}
	}
}
