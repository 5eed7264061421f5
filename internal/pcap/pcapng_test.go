package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"
)

// Next returns the next packet record as NextInto reads it, its Data
// copied: the reference NextInto is held to.
func (ng *NGReader) Next() (Record, error) {
	var rec Record
	if err := ng.NextInto(&rec); err != nil {
		return Record{}, err
	}
	rec.Data = bytes.Clone(rec.Data)
	return rec, nil
}

// ngWriter builds pcapng streams for tests.
type ngWriter struct {
	buf   bytes.Buffer
	order binary.ByteOrder
}

func newNGWriter() *ngWriter { return &ngWriter{order: binary.LittleEndian} }

func (w *ngWriter) block(btype uint32, body []byte) {
	total := uint32(12 + len(body))
	pad := (4 - len(body)%4) % 4
	total += uint32(pad)
	var hdr [8]byte
	w.order.PutUint32(hdr[0:4], btype)
	w.order.PutUint32(hdr[4:8], total)
	w.buf.Write(hdr[:])
	w.buf.Write(body)
	w.buf.Write(make([]byte, pad))
	var tail [4]byte
	w.order.PutUint32(tail[:], total)
	w.buf.Write(tail[:])
}

func (w *ngWriter) shb() {
	body := make([]byte, 16)
	w.order.PutUint32(body[0:4], byteOrderMagic)
	w.order.PutUint16(body[4:6], 1)
	w.order.PutUint16(body[6:8], 0)
	for i := 8; i < 16; i++ {
		body[i] = 0xff // unknown section length
	}
	w.block(blockSHB, body)
}

// idb writes an interface description; tsresol 6 = microseconds, 9 = ns.
func (w *ngWriter) idb(linkType uint16, tsresol byte) {
	body := make([]byte, 8)
	w.order.PutUint16(body[0:2], linkType)
	// snaplen 0 (no limit)
	if tsresol != 0 {
		opt := []byte{9, 0, 1, 0, tsresol, 0, 0, 0} // if_tsresol + pad
		w.order.PutUint16(opt[0:2], 9)
		w.order.PutUint16(opt[2:4], 1)
		body = append(body, opt...)
		end := make([]byte, 4) // opt_endofopt
		body = append(body, end...)
	}
	w.block(blockIDB, body)
}

func (w *ngWriter) epb(ifIdx uint32, ts time.Time, unitsPerSecond uint64, data []byte) {
	raw := uint64(ts.Unix())*unitsPerSecond + uint64(ts.Nanosecond())*unitsPerSecond/uint64(time.Second)
	body := make([]byte, 20)
	w.order.PutUint32(body[0:4], ifIdx)
	w.order.PutUint32(body[4:8], uint32(raw>>32))
	w.order.PutUint32(body[8:12], uint32(raw))
	w.order.PutUint32(body[12:16], uint32(len(data)))
	w.order.PutUint32(body[16:20], uint32(len(data)))
	body = append(body, data...)
	w.block(blockEPB, body)
}

func TestNGReaderMicroseconds(t *testing.T) {
	w := newNGWriter()
	w.shb()
	w.idb(1, 6) // Ethernet, 10^-6
	ts := time.Date(2022, 5, 5, 12, 0, 0, 123456000, time.UTC)
	payload := []byte{1, 2, 3, 4, 5}
	w.epb(0, ts, 1_000_000, payload)

	ng, err := newNGReader(newWindow(&w.buf))
	if err != nil {
		t.Fatalf("NewNGReader: %v", err)
	}
	rec, err := ng.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if !rec.Timestamp.Equal(ts) {
		t.Errorf("ts = %v, want %v", rec.Timestamp, ts)
	}
	if !bytes.Equal(rec.Data, payload) || rec.OriginalLen != len(payload) {
		t.Errorf("data = %x len=%d", rec.Data, rec.OriginalLen)
	}
	if _, err := ng.Next(); err != io.EOF {
		t.Errorf("EOF expected, got %v", err)
	}
}

func TestNGReaderNanosecondResolution(t *testing.T) {
	w := newNGWriter()
	w.shb()
	w.idb(1, 9) // 10^-9
	ts := time.Date(2022, 5, 5, 12, 0, 0, 123456789, time.UTC)
	w.epb(0, ts, 1_000_000_000, []byte{0xaa})

	ng, err := newNGReader(newWindow(&w.buf))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ng.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Timestamp.Nanosecond() != 123456789 {
		t.Errorf("nsec = %d", rec.Timestamp.Nanosecond())
	}
}

func TestNGReaderSkipsUnknownBlocks(t *testing.T) {
	w := newNGWriter()
	w.shb()
	w.idb(1, 0)
	w.block(0x00000005, make([]byte, 12)) // interface statistics: skip
	w.epb(0, time.Unix(1000, 0), 1_000_000, []byte{7})
	ng, err := newNGReader(newWindow(&w.buf))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ng.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 1 || rec.Data[0] != 7 {
		t.Errorf("data = %x", rec.Data)
	}
}

func TestNGReaderMultiSection(t *testing.T) {
	w := newNGWriter()
	w.shb()
	w.idb(1, 6)
	w.epb(0, time.Unix(10, 0), 1_000_000, []byte{1})
	// New section resets interfaces.
	w.shb()
	w.idb(1, 9)
	w.epb(0, time.Unix(20, 0).Add(5*time.Nanosecond), 1_000_000_000, []byte{2})

	ng, err := newNGReader(newWindow(&w.buf))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ng.Next()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ng.Next()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Data[0] != 1 || r2.Data[0] != 2 {
		t.Errorf("order: %x %x", r1.Data, r2.Data)
	}
	if r2.Timestamp.Nanosecond() != 5 {
		t.Errorf("second-section nsec = %d", r2.Timestamp.Nanosecond())
	}
}

func TestNGReaderRejectsGarbage(t *testing.T) {
	if _, err := newNGReader(newWindow(bytes.NewReader(make([]byte, 64)))); err == nil {
		t.Error("accepted zero stream")
	}
	// SHB type but bad byte-order magic.
	var b bytes.Buffer
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:4], blockSHB)
	binary.LittleEndian.PutUint32(hdr[4:8], 28)
	b.Write(hdr)
	if _, err := newNGReader(newWindow(&b)); err == nil {
		t.Error("accepted bad byte-order magic")
	}
}

func TestOpenStreamDispatch(t *testing.T) {
	// Classic pcap.
	var classic bytes.Buffer
	pw, _ := NewWriter(&classic, WriterOptions{})
	_ = pw.WriteRecord(time.Unix(5, 0), []byte{9, 9})
	cs, err := OpenStream(&classic)
	if err != nil {
		t.Fatalf("OpenStream(classic): %v", err)
	}
	var rec Record
	if err := cs.NextInto(&rec); err != nil || len(rec.Data) != 2 {
		t.Errorf("classic rec = %v err=%v", rec, err)
	}

	// pcapng.
	w := newNGWriter()
	w.shb()
	w.idb(1, 6)
	w.epb(0, time.Unix(7, 0), 1_000_000, []byte{1, 2, 3})
	ns, err := OpenStream(&w.buf)
	if err != nil {
		t.Fatalf("OpenStream(ng): %v", err)
	}
	if err := ns.NextInto(&rec); err != nil || len(rec.Data) != 3 {
		t.Errorf("ng rec = %v err=%v", rec, err)
	}

	// Garbage.
	if _, err := OpenStream(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6})); err == nil {
		t.Error("OpenStream accepted garbage")
	}
}

func TestNGWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewNGWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2022, 5, 5, 12, 0, 0, 987654321, time.UTC)
	payloads := [][]byte{{1}, {2, 3}, {4, 5, 6, 7, 8}}
	for i, p := range payloads {
		if err := w.WriteRecord(ts.Add(time.Duration(i)*time.Millisecond), p); err != nil {
			t.Fatal(err)
		}
	}
	r, err := newNGReader(newWindow(&buf))
	if err != nil {
		t.Fatalf("reading own output: %v", err)
	}
	for i, want := range payloads {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(rec.Data, want) {
			t.Errorf("record %d data = %x", i, rec.Data)
		}
		wantTS := ts.Add(time.Duration(i) * time.Millisecond)
		if !rec.Timestamp.Equal(wantTS) {
			t.Errorf("record %d ts = %v, want %v", i, rec.Timestamp, wantTS)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestNGWriterOpenStream(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewNGWriter(&buf, 1)
	_ = w.WriteRecord(time.Unix(100, 0), []byte{0xaa, 0xbb})
	s, err := OpenStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := s.NextInto(&rec); err != nil || len(rec.Data) != 2 {
		t.Fatalf("rec=%v err=%v", rec, err)
	}
}
