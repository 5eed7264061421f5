package pcap

// Tests for the zero-copy read path: NextInto's borrowed-buffer
// contract, Next/NextInto equivalence, and — for the pcapng reader —
// the same truncation contract the classic reader has had since the
// hardening PR: a stream cut mid-block yields every complete record,
// then a clean io.EOF with Truncated() set, and never a hard error.

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/iotest"
	"time"
)

// zcPayloads are the test records; distinct lengths exercise the reused
// buffer both growing and shrinking between records.
var zcPayloads = [][]byte{
	bytes.Repeat([]byte{0x11}, 60),
	bytes.Repeat([]byte{0x22}, 9),
	bytes.Repeat([]byte{0x33}, 128),
}

func zcClassic(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{Nanosecond: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range zcPayloads {
		if err := w.WriteRecord(time.Unix(int64(100+i), 0), p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func zcNG(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewNGWriter(&buf, uint16(LinkTypeEthernet))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range zcPayloads {
		if err := w.WriteRecord(time.Unix(int64(100+i), 0), p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestNextIntoBorrowsBuffer pins the lifetime contract: the Data slice
// filled by NextInto is a slice of the stream's read window and is
// invalidated by the next read, while Next returns stable caller-owned
// copies. The stream is fed a byte at a time so that every record
// refills the window — the moment a borrowed slice goes stale; with
// larger reads the same happens whenever a record straddles the end of
// what the window holds (TestWindowLendsInPlace has the other half: no
// copy between refills).
func TestNextIntoBorrowsBuffer(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"pcap", zcClassic(t)},
		{"pcapng", zcNG(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := OpenStream(iotest.OneByteReader(bytes.NewReader(tc.raw)))
			if err != nil {
				t.Fatal(err)
			}
			var rec Record
			if err := s.NextInto(&rec); err != nil {
				t.Fatal(err)
			}
			borrowed := rec.Data
			if !bytes.Equal(borrowed, zcPayloads[0]) {
				t.Fatalf("record 0 = %x", borrowed)
			}
			if err := s.NextInto(&rec); err != nil {
				t.Fatal(err)
			}
			// The refill for record 1 restarted the window at its front, where
			// record 0 was: the borrowed slice must now see the new bytes.
			if bytes.Equal(borrowed[:len(zcPayloads[1])], zcPayloads[0][:len(zcPayloads[1])]) {
				t.Error("previous Data survived the next read; the window is not reused (copy crept back in)")
			}

			owned, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			keep := owned.Data
			if _, err := s.Next(); err != io.EOF {
				t.Fatalf("want EOF, got %v", err)
			}
			if !bytes.Equal(keep, zcPayloads[2]) {
				t.Error("Next's Data changed after subsequent reads; it must be caller-owned")
			}
		})
	}
}

// TestNextMatchesNextInto replays the same capture through both APIs
// and demands identical records.
func TestNextMatchesNextInto(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"pcap", zcClassic(t)},
		{"pcapng", zcNG(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := OpenStream(bytes.NewReader(tc.raw))
			if err != nil {
				t.Fatal(err)
			}
			b, err := OpenStream(bytes.NewReader(tc.raw))
			if err != nil {
				t.Fatal(err)
			}
			var rec Record
			for {
				errA := a.NextInto(&rec)
				got, errB := b.Next()
				if (errA == io.EOF) != (errB == io.EOF) {
					t.Fatalf("EOF disagreement: NextInto=%v Next=%v", errA, errB)
				}
				if errA == io.EOF {
					break
				}
				if errA != nil || errB != nil {
					t.Fatalf("NextInto=%v Next=%v", errA, errB)
				}
				if !rec.Timestamp.Equal(got.Timestamp) || rec.OriginalLen != got.OriginalLen || !bytes.Equal(rec.Data, got.Data) {
					t.Fatalf("record mismatch: NextInto=%+v Next=%+v", rec, got)
				}
			}
		})
	}
}

// drainCut reads a capture prefix to exhaustion, returning the complete
// records recovered and the reader's truncation verdict. Any error but
// io.EOF fails the test: a cut capture must degrade, never explode.
func drainCut(t *testing.T, prefix []byte) (recs int, truncated bool) {
	t.Helper()
	s, err := OpenStream(bytes.NewReader(prefix))
	if err != nil {
		t.Fatalf("OpenStream on cut capture: %v", err)
	}
	var rec Record
	for {
		err := s.NextInto(&rec)
		if err == io.EOF {
			return recs, s.Truncated()
		}
		if err != nil {
			t.Fatalf("cut capture must yield io.EOF, got %v after %d records", err, recs)
		}
		recs++
	}
}

// TestTruncationParityClassicVsNG cuts the same three-record capture at
// every byte offset in both serializations and checks the shared
// contract the engine relies on: every record fully contained in the
// prefix is recovered, and Truncated() is set exactly when the cut fell
// mid-record (classic) / mid-block (pcapng) — so both formats degrade
// identically under a crashed capture writer.
func TestTruncationParityClassicVsNG(t *testing.T) {
	classic := zcClassic(t)
	ng := zcNG(t)

	// Classic: fixed 24-byte file header, then 16-byte record headers.
	classicEnds := []int{24}
	for _, p := range zcPayloads {
		classicEnds = append(classicEnds, classicEnds[len(classicEnds)-1]+recordHeaderLen+len(p))
	}
	// pcapng: block boundaries, found by walking the little-endian
	// total-length field at offset 4 of each block.
	var ngEnds []int
	packetStart := -1 // offset of the first EPB
	for off := 0; off < len(ng); {
		total := int(binary.LittleEndian.Uint32(ng[off+4 : off+8]))
		btype := binary.LittleEndian.Uint32(ng[off : off+4])
		if btype == blockEPB && packetStart < 0 {
			packetStart = off
		}
		off += total
		ngEnds = append(ngEnds, off)
	}
	if packetStart < 0 {
		t.Fatal("no EPB in serialized pcapng")
	}

	check := func(t *testing.T, raw []byte, firstCut int, ends []int) {
		boundary := func(n int) bool {
			for _, e := range ends {
				if n == e {
					return true
				}
			}
			return false
		}
		completeBefore := func(n int) int {
			recs := 0
			for i, e := range ends {
				// ends[0] for classic is the file header; for pcapng the
				// leading entries are SHB/IDB blocks. Count only ends at or
				// after the first packet's end.
				if e <= n && ends[i] > firstCut {
					recs++
				}
			}
			return recs
		}
		for cut := firstCut + 1; cut < len(raw); cut++ {
			recs, truncated := drainCut(t, raw[:cut])
			if want := completeBefore(cut); recs != want {
				t.Fatalf("cut at %d: recovered %d records, want %d", cut, recs, want)
			}
			if want := !boundary(cut); truncated != want {
				t.Fatalf("cut at %d: Truncated() = %v, want %v", cut, truncated, want)
			}
		}
	}
	t.Run("pcap", func(t *testing.T) { check(t, classic, 24, classicEnds[1:]) })
	t.Run("pcapng", func(t *testing.T) { check(t, ng, packetStart, ngEnds) })
}
