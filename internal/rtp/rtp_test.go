package rtp

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"zoomlens/internal/sim"
)

// writeRTP returns the simulator's RTP header for h's fields, then
// payload.
func writeRTP(h Header, payload []byte) []byte {
	sh := sim.Header{Layout: sim.LayoutBare, Kind: sim.KindVideo, PT: h.PayloadType, Marker: h.Marker,
		Seq: h.SequenceNumber, TS: h.Timestamp, SSRC: h.SSRC}
	return append(sim.AppendHeaders(nil, &sh), payload...)
}

func TestParseMarshalRoundTrip(t *testing.T) {
	h := Header{Marker: true, PayloadType: 98, SequenceNumber: 4711, Timestamp: 0xdeadbeef, SSRC: 0x1234}
	payload := []byte("encrypted media")
	got, err := Parse(writeRTP(h, payload))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !reflect.DeepEqual(got, Packet{Header: h, Payload: payload}) {
		t.Errorf("parsed %+v, want %+v", got, Packet{Header: h, Payload: payload})
	}

	// A CSRC list and a header extension, which the simulator never
	// writes (Zoom's SFU does not mix, §4.2.3), by hand.
	wire := []byte{
		0x92,       // V=2, no padding, X=1, CC=2
		0xe2,       // marker, PT 98
		0x12, 0x67, // sequence number 4711
		0xde, 0xad, 0xbe, 0xef, // timestamp
		0x00, 0x00, 0x12, 0x34, // SSRC
		0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x08, // CSRCs 7 and 8
		0xbe, 0xde, 0x00, 0x02, // extension profile 0xbede, two words
		1, 2, 3, 4, 5, 6, 7, 8,
		'm', 'e', 'd', 'i', 'a',
	}
	got, err = Parse(wire)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := Packet{Header: h, Payload: []byte("media")}
	want.CSRC, want.Extension, want.ExtensionProfile, want.ExtensionData = []uint32{7, 8}, true, 0xbede, []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
}

func TestParsePadding(t *testing.T) {
	wire := writeRTP(Header{PayloadType: 112, SSRC: 9}, []byte{1, 2, 3})
	// Add 3 bytes of padding manually and set the P bit.
	wire = append(wire, 0, 0, 3)
	wire[0] |= 0x20
	got, err := Parse(wire)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !got.Padding {
		t.Error("Padding flag not set")
	}
	if !bytes.Equal(got.Payload, []byte{1, 2, 3}) {
		t.Errorf("payload = %v", got.Payload)
	}
}

func TestParseBadVersion(t *testing.T) {
	wire := make([]byte, 12)
	wire[0] = 1 << 6
	if _, err := Parse(wire); err == nil {
		t.Error("expected version error")
	}
}

func TestParseTruncated(t *testing.T) {
	if _, err := Parse([]byte{0x80, 98, 0}); err == nil {
		t.Error("expected truncation error")
	}
	// CSRC count promises more than present.
	wire := make([]byte, 12)
	wire[0] = 0x80 | 3
	if _, err := Parse(wire); err == nil {
		t.Error("expected truncation error for CSRC list")
	}
	// Extension bit with no extension header.
	wire2 := make([]byte, 12)
	wire2[0] = 0x80 | 0x10
	if _, err := Parse(wire2); err == nil {
		t.Error("expected truncation error for extension")
	}
}

func TestParseInvalidPadding(t *testing.T) {
	wire := writeRTP(Header{SSRC: 1}, []byte{9})
	wire[0] |= 0x20
	wire[len(wire)-1] = 200 // pad length larger than payload
	if _, err := Parse(wire); err == nil {
		t.Error("expected invalid padding error")
	}
}

func TestSeqArithmetic(t *testing.T) {
	cases := []struct {
		a, b uint16
		diff int
	}{
		{0, 1, 1},
		{1, 0, -1},
		{65535, 0, 1},
		{0, 65535, -1},
		{65530, 5, 11},
		{100, 100, 0},
		{0, 0x7fff, 32767},
	}
	for _, c := range cases {
		if got := SeqDiff(c.a, c.b); got != c.diff {
			t.Errorf("SeqDiff(%d,%d) = %d, want %d", c.a, c.b, got, c.diff)
		}
	}
}

func TestQuickSeqDiffAntiSymmetric(t *testing.T) {
	f := func(a, b uint16) bool {
		d1, d2 := SeqDiff(a, b), SeqDiff(b, a)
		if a == b {
			return d1 == 0 && d2 == 0
		}
		// For the ambiguous half-way point both directions give -32768.
		if d1 == -32768 || d2 == -32768 {
			return true
		}
		return d1 == -d2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeqTrackerInOrder(t *testing.T) {
	tr := NewSeqTracker()
	for i := 0; i < 1000; i++ {
		if k := tr.Observe(uint16(i)); k != SeqInOrder {
			t.Fatalf("seq %d classified %v", i, k)
		}
	}
	s := tr.Stats()
	if s.Received != 1000 || s.Duplicates != 0 || s.EstimatedLost != 0 || s.ExpectedSpan != 1000 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSeqTrackerWraparound(t *testing.T) {
	tr := NewSeqTracker()
	start := uint16(65500)
	for i := 0; i < 100; i++ {
		tr.Observe(start + uint16(i)) // wraps past 65535
	}
	s := tr.Stats()
	if s.EstimatedLost != 0 {
		t.Errorf("lost = %d across wraparound, want 0", s.EstimatedLost)
	}
	if s.ExpectedSpan != 100 {
		t.Errorf("span = %d, want 100", s.ExpectedSpan)
	}
}

func TestSeqTrackerLossAndRetransmission(t *testing.T) {
	tr := NewSeqTracker()
	tr.Observe(10)
	tr.Observe(11)
	if k := tr.Observe(13); k != SeqGap {
		t.Errorf("gap classified %v", k)
	}
	if k := tr.Observe(12); k != SeqReordered {
		t.Errorf("late arrival classified %v", k)
	}
	if k := tr.Observe(12); k != SeqDuplicate {
		t.Errorf("retransmission classified %v", k)
	}
	s := tr.Stats()
	if s.Duplicates != 1 || s.Reordered != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.EstimatedLost != 0 {
		t.Errorf("lost = %d after recovery, want 0", s.EstimatedLost)
	}
}

func TestSeqTrackerPermanentLoss(t *testing.T) {
	tr := NewSeqTracker()
	for i := 0; i < 50; i++ {
		if i%10 == 3 {
			continue // drop every 10th+3
		}
		tr.Observe(uint16(i))
	}
	s := tr.Stats()
	if s.EstimatedLost != 5 {
		t.Errorf("lost = %d, want 5", s.EstimatedLost)
	}
}

func TestSeqTrackerDuplicateAtMax(t *testing.T) {
	tr := NewSeqTracker()
	tr.Observe(5)
	if k := tr.Observe(5); k != SeqDuplicate {
		t.Errorf("dup at max classified %v", k)
	}
}

func TestJitterConstantSpacing(t *testing.T) {
	// Perfectly periodic stream: jitter must converge to ~0.
	j := NewJitter(90000)
	ts := uint32(0)
	for i := 0; i < 200; i++ {
		j.Observe(float64(i)*0.033, ts)
		ts += 2970 // 33 ms at 90 kHz — matches arrival spacing of 33 ms... close
	}
	// 0.033s * 90000 = 2970 exactly, so jitter should be 0.
	if got := j.Seconds(); got > 1e-9 {
		t.Errorf("jitter = %g, want ~0", got)
	}
}

func TestJitterRespondsToVariance(t *testing.T) {
	j := NewJitter(90000)
	ts := uint32(0)
	arrival := 0.0
	for i := 0; i < 100; i++ {
		delta := 0.033
		if i%2 == 0 {
			delta += 0.010 // alternate ±10 ms: classic jitter
		}
		arrival += delta
		j.Observe(arrival, ts)
		ts += 2970
	}
	got := j.Seconds()
	if got < 0.004 || got > 0.012 {
		t.Errorf("jitter = %g s, want in [4ms, 12ms]", got)
	}
}

func TestJitterVariablePacketizationCorrected(t *testing.T) {
	// Frames covering variable durations but delivered exactly on
	// schedule: the RTP-timestamp correction must keep jitter at zero.
	j := NewJitter(90000)
	ts := uint32(1000)
	arrival := 5.0
	deltasMS := []int{33, 66, 33, 99, 33, 33, 66}
	for i := 0; i < 300; i++ {
		d := deltasMS[i%len(deltasMS)]
		arrival += float64(d) / 1000
		ts += uint32(90 * d)
		j.Observe(arrival, ts)
	}
	if got := j.Seconds(); got > 1e-9 {
		t.Errorf("jitter = %g, want ~0 for on-schedule variable packetization", got)
	}
}

func TestJitterTimestampWraparound(t *testing.T) {
	j := NewJitter(90000)
	ts := uint32(math.MaxUint32 - 5000)
	arrival := 0.0
	for i := 0; i < 50; i++ {
		arrival += 0.033
		j.Observe(arrival, ts)
		ts += 2970 // wraps past 2^32
	}
	if got := j.Seconds(); got > 1e-9 {
		t.Errorf("jitter = %g across TS wraparound, want ~0", got)
	}
}

// TestQuickMarshalParseIdentity holds the parser to the simulator's
// writer: any header it writes parses back to its fields.
func TestQuickMarshalParseIdentity(t *testing.T) {
	f := func(pt uint8, seq uint16, ts, ssrc uint32, marker bool, payload []byte) bool {
		h := Header{Marker: marker, PayloadType: pt & 0x7f, SequenceNumber: seq, Timestamp: ts, SSRC: ssrc}
		got, err := Parse(writeRTP(h, payload))
		if err != nil {
			return false
		}
		return got.PayloadType == h.PayloadType && got.SequenceNumber == seq &&
			got.Timestamp == ts && got.SSRC == ssrc && got.Marker == marker &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkParse(b *testing.B) {
	wire := writeRTP(Header{PayloadType: 98, SSRC: 42}, make([]byte, 1100))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}
