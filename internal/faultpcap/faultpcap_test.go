package faultpcap

import (
	"bytes"
	"io"
	"testing"
	"time"

	"zoomlens/internal/pcap"
)

// smallCapture builds a classic pcap with n distinct records.
func smallCapture(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.WriterOptions{Nanosecond: true})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2022, 3, 1, 9, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 60)
		if err := w.WriteRecord(base.Add(time.Duration(i)*time.Millisecond), data); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func readAll(t *testing.T, capture []byte) ([]pcap.Record, bool) {
	t.Helper()
	r, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	var recs []pcap.Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs, r.Truncated()
}

func TestApplyDeterministic(t *testing.T) {
	src := smallCapture(t, 50)
	for _, f := range []Fault{Truncate, BitFlip, TimestampJump, Duplicate} {
		a, err := Apply(src, Options{Fault: f, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		b, err := Apply(src, Options{Fault: f, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%v: same seed produced different output", f)
		}
	}
}

func TestTruncateCutsMidRecord(t *testing.T) {
	src := smallCapture(t, 10)
	out, err := Apply(src, Options{Fault: Truncate, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) >= len(src) {
		t.Fatalf("truncated capture not shorter: %d vs %d", len(out), len(src))
	}
	recs, truncated := readAll(t, out)
	if !truncated {
		t.Error("reader did not flag truncation")
	}
	if len(recs) >= 10 || len(recs) == 0 {
		t.Errorf("expected a partial prefix of records, got %d", len(recs))
	}
}

func TestBitFlipChangesPayloadOnly(t *testing.T) {
	src := smallCapture(t, 200)
	out, err := Apply(src, Options{Fault: BitFlip, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := readAll(t, src)
	recs, _ := readAll(t, out)
	if len(recs) != len(orig) {
		t.Fatalf("record count changed: %d vs %d", len(recs), len(orig))
	}
	changed := 0
	for i := range recs {
		if !bytes.Equal(recs[i].Data, orig[i].Data) {
			changed++
		}
		if !recs[i].Timestamp.Equal(orig[i].Timestamp) {
			t.Fatalf("record %d timestamp changed under BitFlip", i)
		}
	}
	if changed == 0 {
		t.Error("no payload was flipped across 200 records")
	}
}

func TestTimestampJumpShiftsTimes(t *testing.T) {
	src := smallCapture(t, 200)
	out, err := Apply(src, Options{Fault: TimestampJump, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := readAll(t, src)
	recs, _ := readAll(t, out)
	jumped := 0
	for i := range recs {
		if !recs[i].Timestamp.Equal(orig[i].Timestamp) {
			jumped++
		}
		if !bytes.Equal(recs[i].Data, orig[i].Data) {
			t.Fatalf("record %d payload changed under TimestampJump", i)
		}
	}
	if jumped == 0 {
		t.Error("no timestamp moved across 200 records")
	}
}

func TestDuplicateAddsRecords(t *testing.T) {
	src := smallCapture(t, 200)
	out, err := Apply(src, Options{Fault: Duplicate, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := readAll(t, src)
	recs, _ := readAll(t, out)
	if len(recs) <= len(orig) {
		t.Fatalf("expected duplicated records, got %d vs %d", len(recs), len(orig))
	}
}
