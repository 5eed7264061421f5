package pcap

// NextBatch's contract, for classic pcap and pcapng in both byte orders:
// a run holds the records Next returns, in order and byte for byte, each
// still intact when the call returns; a call makes at most one Read; a
// cut final record ends the stream as a truncation after every record
// before it; and a malformed record is reported only once the records
// before it have been delivered. Zero allocations per batch is
// TestIngestReadAllocsZero's.

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// batchPayloads are 400 records of 0 to 1,499 bytes — so records straddle
// every window edge — with one larger than the window at index 150.
func batchPayloads() [][]byte {
	out := make([][]byte, 400)
	for i := range out {
		n := i * 37 % 1500
		if i == 150 {
			n = windowSize + windowSize/2
		}
		out[i] = bytes.Repeat([]byte{byte(i)}, n)
	}
	return out
}

// batchRead is what NextBatch makes of a stream: the records (copied
// once the call that returned them is over), the run lengths, the most
// Reads one call made outside the call returning the oversize record,
// and how the stream ended.
type batchRead struct {
	recs      []Record
	runs      []int
	maxReads  int
	err       error
	truncated bool
}

func readBatches(t *testing.T, r io.Reader) batchRead {
	t.Helper()
	cr := &countingReader{r: r}
	s, err := OpenStream(cr)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	var out batchRead
	var recs [BatchLen]Record
	for {
		before := cr.reads
		n, err := s.NextBatch(recs[:])
		if n > 0 && err != nil {
			t.Fatalf("NextBatch returned %d records and the error %v", n, err)
		}
		if err != nil {
			out.err, out.truncated = err, s.Truncated()
			return out
		}
		oversize := false
		for _, rec := range recs[:n] {
			oversize = oversize || len(rec.Data) > windowSize
			cp := rec
			cp.Data = bytes.Clone(rec.Data)
			out.recs = append(out.recs, cp)
		}
		if !oversize {
			out.maxReads = max(out.maxReads, cr.reads-before)
		}
		out.runs = append(out.runs, n)
	}
}

// readNexts is the reference: every record as Next copies it.
func readNexts(t *testing.T, r io.Reader) (recs []Record, err error) {
	t.Helper()
	s, err := OpenStream(r)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	for {
		rec, err := s.Next()
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !bytes.Equal(g.Data, w.Data) || !g.Timestamp.Equal(w.Timestamp) || g.OriginalLen != w.OriginalLen ||
			g.PacketID != w.PacketID || g.HasPacketID != w.HasPacketID {
			t.Fatalf("record %d: %d bytes at %v, want %d bytes at %v", i, len(g.Data), g.Timestamp, len(w.Data), w.Timestamp)
		}
	}
}

// TestNextBatchMatchesNext: whole, halved and one byte per Read, a batch
// read returns Next's records, straddling and oversize ones included.
// Read whole, a call makes at most one Read (the oversize record's call
// aside: it reads the record's body straight from the stream), and runs
// span many records.
func TestNextBatchMatchesNext(t *testing.T) {
	payloads := batchPayloads()
	for _, c := range contractCaptures(payloads) {
		t.Run(c.name, func(t *testing.T) {
			want, err := readNexts(t, bytes.NewReader(c.raw))
			if err != io.EOF {
				t.Fatalf("Next: %v", err)
			}
			for _, rd := range []struct {
				name string
				r    io.Reader
			}{
				{"whole", bytes.NewReader(c.raw)},
				{"half", iotest.HalfReader(bytes.NewReader(c.raw))},
				{"onebyte", iotest.OneByteReader(bytes.NewReader(c.raw))},
			} {
				got := readBatches(t, rd.r)
				if got.err != io.EOF || got.truncated {
					t.Fatalf("%s: ended with %v (truncated=%v), want a clean io.EOF", rd.name, got.err, got.truncated)
				}
				sameRecords(t, got.recs, want)
				if rd.name != "whole" {
					continue
				}
				if got.maxReads > 1 {
					t.Errorf("a NextBatch call made %d Reads, want at most 1", got.maxReads)
				}
				if len(got.runs) > 3*len(payloads)/4 {
					t.Errorf("%d records in %d runs: batches hardly span records", len(payloads), len(got.runs))
				}
			}
		})
	}
}

// TestNextBatchCutFinalRecord: a stream cut inside its last record
// delivers every record before the cut, then ends as a truncation.
func TestNextBatchCutFinalRecord(t *testing.T) {
	payloads := batchPayloads()[:200]
	for _, c := range contractCaptures(payloads) {
		t.Run(c.name, func(t *testing.T) {
			cut := c.raw[:len(c.raw)-3]
			for _, r := range []io.Reader{bytes.NewReader(cut), iotest.OneByteReader(bytes.NewReader(cut))} {
				got := readBatches(t, r)
				if got.err != io.EOF || !got.truncated {
					t.Fatalf("ended with %v (truncated=%v), want io.EOF and a truncation", got.err, got.truncated)
				}
				if len(got.recs) != len(payloads)-1 {
					t.Fatalf("%d records before the cut, want %d", len(got.recs), len(payloads)-1)
				}
				checkRecords(t, got.recs, payloads)
			}
		})
	}
}

// TestNextBatchReportsBadRecordAfterEarlierOnes: a record the reader
// refuses — in classic pcap one longer than the snap length, in pcapng an
// enhanced packet block whose capture length overruns the block — is
// reported by the call after the one that delivers the records before
// it, with the error NextInto gives.
func TestNextBatchReportsBadRecordAfterEarlierOnes(t *testing.T) {
	const bad = 5
	payloads := make([][]byte, 10)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, 50)
	}
	payloads[bad] = bytes.Repeat([]byte{0xee}, 200)
	for _, c := range contractCaptures(payloads) {
		t.Run(c.name, func(t *testing.T) {
			var o binary.ByteOrder = binary.LittleEndian
			if strings.HasSuffix(c.name, "be") {
				o = binary.BigEndian
			}
			raw := bytes.Clone(c.raw)
			want := "snap length"
			if strings.HasPrefix(c.name, "pcapng") {
				// The EPB's capture length field, 20 bytes into the block.
				o.PutUint32(raw[c.packets[bad-1]+20:], 0x7fff)
				want = "exceeds block"
			} else {
				o.PutUint32(raw[16:20], 100)
			}
			s, err := OpenStream(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			var recs [BatchLen]Record
			n, err := s.NextBatch(recs[:])
			if n != bad || err != nil {
				t.Fatalf("first call: %d records, err %v; want the %d before the bad one", n, err, bad)
			}
			checkRecords(t, recs[:n], payloads)
			if n, err = s.NextBatch(recs[:]); n != 0 || err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("second call: %d records, err %v; want the %q error", n, err, want)
			}
			if ref := readOutcomeOf(openerOf(c.name), bytes.NewReader(raw)); len(ref.recs) != bad || ref.err != err.Error() {
				t.Errorf("NextInto stops after %d records with %q; NextBatch after %d with %q", len(ref.recs), ref.err, bad, err)
			}
		})
	}
}

// openerOf is the record iterator a contract capture's format uses.
func openerOf(name string) readerUnderTest {
	if strings.HasPrefix(name, "pcapng") {
		return ngUnderTest
	}
	return classicUnderTest
}
