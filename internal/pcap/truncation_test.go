package pcap

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"
	"time"
)

// twoRecordCapture builds a classic pcap holding two records and returns
// the bytes plus the offset where the second record starts.
func twoRecordCapture(t *testing.T) ([]byte, int) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(time.Unix(10, 0), bytes.Repeat([]byte{0xaa}, 40)); err != nil {
		t.Fatal(err)
	}
	secondStart := buf.Len()
	if err := w.WriteRecord(time.Unix(11, 0), bytes.Repeat([]byte{0xbb}, 40)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), secondStart
}

// TestTruncatedMidRecordIsPartialResult is the regression test for the
// graceful-degradation contract: a capture cut mid-record (mid-body or
// mid-header) yields every complete record followed by a clean io.EOF,
// with Truncated() reporting the cut — not a hard error that throws away
// the readable prefix.
func TestTruncatedMidRecordIsPartialResult(t *testing.T) {
	full, secondStart := twoRecordCapture(t)
	cuts := map[string]int{
		"mid_body":   secondStart + recordHeaderLen + 20,
		"mid_header": secondStart + 7,
	}
	for name, cut := range cuts {
		t.Run(name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(full[:cut]))
			if err != nil {
				t.Fatal(err)
			}
			rec, err := r.Next()
			if err != nil {
				t.Fatalf("first (complete) record: %v", err)
			}
			if len(rec.Data) != 40 || rec.Data[0] != 0xaa {
				t.Fatalf("first record corrupted: %d bytes", len(rec.Data))
			}
			if r.Truncated() {
				t.Error("Truncated() true before the cut was reached")
			}
			if _, err := r.Next(); err != io.EOF {
				t.Fatalf("cut record: err = %v, want io.EOF", err)
			}
			if !r.Truncated() {
				t.Error("Truncated() false after a mid-record cut")
			}
		})
	}
}

// TestCleanEOFNotTruncated guards the other side of the contract: a
// complete capture must not be flagged.
func TestCleanEOFNotTruncated(t *testing.T) {
	full, _ := twoRecordCapture(t)
	r, err := NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("read %d records, want 2", n)
	}
	if r.Truncated() {
		t.Error("Truncated() true on a clean EOF")
	}
}

// TestOpenStreamTruncated checks the format-sniffing stream wrapper
// forwards the truncation flag for both classic and pcapng inputs.
func TestOpenStreamTruncated(t *testing.T) {
	classic, secondStart := twoRecordCapture(t)

	var ngBuf bytes.Buffer
	ngw, err := NewNGWriter(&ngBuf, uint16(LinkTypeEthernet))
	if err != nil {
		t.Fatal(err)
	}
	if err := ngw.WriteRecord(time.Unix(10, 0), bytes.Repeat([]byte{0xaa}, 40)); err != nil {
		t.Fatal(err)
	}
	ngFirstEnd := ngBuf.Len()
	if err := ngw.WriteRecord(time.Unix(11, 0), bytes.Repeat([]byte{0xbb}, 40)); err != nil {
		t.Fatal(err)
	}
	ng := ngBuf.Bytes()

	cases := map[string][]byte{
		"classic": classic[:secondStart+recordHeaderLen+20],
		"pcapng":  ng[:ngFirstEnd+10],
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := OpenStream(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			var rec Record
			for {
				err := s.NextInto(&rec)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("record %d: %v", n, err)
				}
				n++
			}
			if n != 1 {
				t.Fatalf("read %d complete records, want 1", n)
			}
			if !s.Truncated() {
				t.Error("Stream.Truncated() false after a mid-record cut")
			}
		})
	}
}

// TestCutAtEveryOffset cuts a small capture at every byte offset, for
// classic pcap and pcapng in both byte orders, fed whole and a byte at a
// time (so the cut lands at every position relative to a window refill).
// A cut inside the leading header cannot be opened; from there on every
// record wholly before the cut comes back identical, followed by a clean
// io.EOF, and Truncated() is set exactly when the cut fell inside a
// record or block.
func TestCutAtEveryOffset(t *testing.T) {
	payloads := smallPayloads()
	for _, c := range contractCaptures(payloads) {
		for name, wrap := range map[string]func(io.Reader) io.Reader{
			"plain":    func(r io.Reader) io.Reader { return r },
			"one-byte": iotest.OneByteReader,
		} {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				for cut := 0; cut <= len(c.raw); cut++ {
					if cut < c.bounds[0] {
						if _, err := OpenStream(wrap(bytes.NewReader(c.raw[:cut]))); err == nil {
							t.Fatalf("cut at %d: opened a stream with %d of %d header bytes", cut, cut, c.bounds[0])
						}
						continue
					}
					recs, truncated := readAll(t, wrap(bytes.NewReader(c.raw[:cut])))
					want, clean := 0, false
					for _, end := range c.packets {
						if end <= cut {
							want++
						}
					}
					for _, b := range c.bounds {
						clean = clean || b == cut
					}
					if len(recs) != want {
						t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(recs), want)
					}
					checkRecords(t, recs, payloads)
					if truncated == clean {
						t.Fatalf("cut at %d: Truncated() = %v, want %v", cut, truncated, !clean)
					}
				}
			})
		}
	}
}
