package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripMicroseconds(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	ts := time.Date(2022, 5, 5, 12, 0, 0, 123456000, time.UTC)
	payload := []byte{0xde, 0xad, 0xbe, 0xef, 0x01}
	if err := w.WriteRecord(ts, payload); err != nil {
		t.Fatalf("WriteRecord: %v", err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	hdr := r.Header()
	if hdr.Nanosecond {
		t.Error("expected microsecond resolution")
	}
	if hdr.LinkType != LinkTypeEthernet {
		t.Errorf("LinkType = %d, want %d", hdr.LinkType, LinkTypeEthernet)
	}
	if hdr.VersionMajor != 2 || hdr.VersionMinor != 4 {
		t.Errorf("version = %d.%d, want 2.4", hdr.VersionMajor, hdr.VersionMinor)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if !rec.Timestamp.Equal(ts) {
		t.Errorf("Timestamp = %v, want %v", rec.Timestamp, ts)
	}
	if !bytes.Equal(rec.Data, payload) {
		t.Errorf("Data = %x, want %x", rec.Data, payload)
	}
	if rec.OriginalLen != len(payload) {
		t.Errorf("OriginalLen = %d, want %d", rec.OriginalLen, len(payload))
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("Next after last record = %v, want io.EOF", err)
	}
}

// linkTypeRawIP is the pcap LINKTYPE registry's raw-IP value: a link
// type other than the default, for the header round trip.
const linkTypeRawIP uint32 = 101

func TestRoundTripNanoseconds(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{Nanosecond: true, LinkType: linkTypeRawIP})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	ts := time.Date(2022, 5, 5, 12, 0, 0, 123456789, time.UTC)
	if err := w.WriteRecord(ts, []byte{1, 2, 3}); err != nil {
		t.Fatalf("WriteRecord: %v", err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if !r.Header().Nanosecond {
		t.Error("expected nanosecond resolution")
	}
	if r.Header().LinkType != linkTypeRawIP {
		t.Errorf("LinkType = %d, want %d", r.Header().LinkType, linkTypeRawIP)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if rec.Timestamp.Nanosecond() != 123456789 {
		t.Errorf("nanoseconds = %d, want 123456789", rec.Timestamp.Nanosecond())
	}
}

func TestBigEndianFile(t *testing.T) {
	// Hand-build a big-endian microsecond file with one 4-byte record.
	var buf bytes.Buffer
	be := binary.BigEndian
	var gh [24]byte
	be.PutUint32(gh[0:4], MagicMicroseconds)
	be.PutUint16(gh[4:6], 2)
	be.PutUint16(gh[6:8], 4)
	be.PutUint32(gh[16:20], 65535)
	be.PutUint32(gh[20:24], LinkTypeEthernet)
	buf.Write(gh[:])
	var rh [16]byte
	be.PutUint32(rh[0:4], 1651752000)
	be.PutUint32(rh[4:8], 42)
	be.PutUint32(rh[8:12], 4)
	be.PutUint32(rh[12:16], 4)
	buf.Write(rh[:])
	buf.Write([]byte{9, 8, 7, 6})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if got := rec.Timestamp.Unix(); got != 1651752000 {
		t.Errorf("sec = %d, want 1651752000", got)
	}
	if got := rec.Timestamp.Nanosecond(); got != 42000 {
		t.Errorf("nsec = %d, want 42000", got)
	}
	if !bytes.Equal(rec.Data, []byte{9, 8, 7, 6}) {
		t.Errorf("Data = %x", rec.Data)
	}
}

func TestBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader(make([]byte, 24)))
	if err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte{1, 2, 3}))
	if err == nil {
		t.Error("expected error for truncated global header")
	}
}

func TestTruncatedRecordBody(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, WriterOptions{})
	_ = w.WriteRecord(time.Unix(0, 0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	trunc := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("expected error for truncated record body")
	}
}

func TestSnapLenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{SnapLen: 4})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := w.WriteRecord(time.Unix(1, 0), []byte{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatalf("WriteRecord: %v", err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if len(rec.Data) != 4 {
		t.Errorf("len(Data) = %d, want 4", len(rec.Data))
	}
	if rec.OriginalLen != 6 {
		t.Errorf("OriginalLen = %d, want 6", rec.OriginalLen)
	}
}

func TestImplausibleCaptureLength(t *testing.T) {
	var buf bytes.Buffer
	le := binary.LittleEndian
	var gh [24]byte
	le.PutUint32(gh[0:4], MagicMicroseconds)
	le.PutUint32(gh[16:20], 0) // snaplen 0: skip snaplen check
	le.PutUint32(gh[20:24], LinkTypeEthernet)
	buf.Write(gh[:])
	var rh [16]byte
	le.PutUint32(rh[8:12], 1<<27) // absurd caplen
	buf.Write(rh[:])
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("expected error for implausible capture length")
	}
}

// TestQuickRoundTrip checks that arbitrary payload/timestamp combinations
// survive a write/read cycle.
func TestQuickRoundTrip(t *testing.T) {
	f := func(payload []byte, sec uint32, usec uint32) bool {
		usec %= 1_000_000
		ts := time.Unix(int64(sec), int64(usec)*1000).UTC()
		var buf bytes.Buffer
		w, err := NewWriter(&buf, WriterOptions{})
		if err != nil {
			return false
		}
		if err := w.WriteRecord(ts, payload); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		rec, err := r.Next()
		if err != nil {
			return false
		}
		return rec.Timestamp.Equal(ts) && bytes.Equal(rec.Data, payload) && rec.OriginalLen == len(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestManyRecordsSequential(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, WriterOptions{Nanosecond: true})
	rng := rand.New(rand.NewSource(1))
	const n = 500
	want := make([][]byte, n)
	base := time.Date(2022, 5, 5, 9, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		b := make([]byte, 1+rng.Intn(1400))
		rng.Read(b)
		want[i] = b
		if err := w.WriteRecord(base.Add(time.Duration(i)*time.Millisecond), b); err != nil {
			t.Fatalf("WriteRecord %d: %v", i, err)
		}
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	for i := 0; i < n; i++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if !bytes.Equal(rec.Data, want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
		if wantTS := base.Add(time.Duration(i) * time.Millisecond); !rec.Timestamp.Equal(wantTS) {
			t.Fatalf("record %d timestamp = %v, want %v", i, rec.Timestamp, wantTS)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}
