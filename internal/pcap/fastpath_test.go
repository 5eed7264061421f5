package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
	"time"
)

// readOutcome is everything a reader makes of a stream: the records it
// returned (data copied), the text of the error that stopped it (empty
// for io.EOF) and whether it reported the stream cut.
type readOutcome struct {
	recs      []Record
	err       string
	truncated bool
}

// readerUnderTest opens a stream as one format and returns its record
// iterator and truncation flag.
type readerUnderTest func(io.Reader) (next func(*Record) error, truncated func() bool, err error)

func classicUnderTest(r io.Reader) (func(*Record) error, func() bool, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, nil, err
	}
	return rd.NextInto, rd.Truncated, nil
}

func ngUnderTest(r io.Reader) (func(*Record) error, func() bool, error) {
	ng, err := newNGReader(newWindow(r))
	if err != nil {
		return nil, nil, err
	}
	return ng.NextInto, ng.Truncated, nil
}

func readOutcomeOf(open readerUnderTest, r io.Reader) readOutcome {
	next, truncated, err := open(r)
	if err != nil {
		return readOutcome{err: err.Error()}
	}
	var out readOutcome
	var rec Record
	for {
		err := next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			out.err = err.Error()
			break
		}
		cp := rec
		cp.Data = bytes.Clone(rec.Data)
		out.recs = append(out.recs, cp)
	}
	out.truncated = truncated()
	return out
}

// FuzzReaderFastVsSlow holds each reader's in-window fast path to its
// refill path. The same bytes are read as a classic pcap and as a pcapng,
// once from a reader that hands over the whole stream — so every record
// the window already holds is sliced out of it directly — and once one
// byte per Read, so every header and every record is fetched through a
// refill. The two must return the same records, stop with the same error
// text and agree on Truncated. The seeds include a record longer than
// the file's snap length, with all its bytes present (a fast path that
// skipped the snap-length check would return it), and one claiming just
// over the 64 MiB sanity cap.
func FuzzReaderFastVsSlow(f *testing.F) {
	for _, c := range contractCaptures(smallPayloads()) {
		f.Add(c.raw)
		f.Add(c.raw[:len(c.raw)-3]) // cut inside the last record
	}
	le := binary.LittleEndian
	classic := func(snapLen uint32) []byte {
		b := le.AppendUint32(nil, MagicMicroseconds)
		b = le.AppendUint16(b, 2)
		b = le.AppendUint16(b, 4)
		b = append(b, make([]byte, 8)...)
		b = le.AppendUint32(b, snapLen)
		return le.AppendUint32(b, LinkTypeEthernet)
	}
	record := func(b []byte, capLen uint32, data []byte) []byte {
		b = le.AppendUint32(b, 1700000000)
		b = le.AppendUint32(b, 5)
		b = le.AppendUint32(b, capLen)
		b = le.AppendUint32(b, capLen)
		return append(b, data...)
	}
	f.Add(record(record(classic(64), 4, []byte{1, 2, 3, 4}), 65, make([]byte, 65)))
	f.Add(record(classic(0), 1<<26+1, make([]byte, 64)))
	// pcapng: a splitter stream (epb_packetid options), a simple packet
	// block, a block type it skips, and a second, big-endian section.
	var ng bytes.Buffer
	nw, err := NewNGWriter(&ng, uint16(LinkTypeEthernet))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := nw.WriteRecordID(time.Unix(1700000000, int64(i)), bytes.Repeat([]byte{byte(i)}, 10+i), uint64(i+1)); err != nil {
			f.Fatal(err)
		}
	}
	w := &ngWriter{order: binary.LittleEndian}
	w.block(blockSPB, append(le.AppendUint32(nil, 3), 7, 7, 7))
	w.block(0x0bad, []byte{1, 2, 3, 4})
	be := &ngWriter{order: binary.BigEndian}
	be.shb()
	be.idb(uint16(LinkTypeEthernet), 6)
	be.epb(0, time.Unix(1700000001, 0), 1e6, []byte{9, 9, 9})
	f.Add(append(append(ng.Bytes(), w.buf.Bytes()...), be.buf.Bytes()...))
	// An interface whose if_tsresol is 2^-127 s: the unit must not
	// overflow to zero and make every timestamp a division by it.
	fine := &ngWriter{order: binary.LittleEndian}
	fine.shb()
	fine.idb(uint16(LinkTypeEthernet), 0xff)
	fine.epb(0, time.Unix(0, 0), 1, []byte{1})
	f.Add(fine.buf.Bytes())

	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, format := range []struct {
			name string
			open readerUnderTest
		}{{"pcap", classicUnderTest}, {"pcapng", ngUnderTest}} {
			whole := readOutcomeOf(format.open, bytes.NewReader(raw))
			slow := readOutcomeOf(format.open, iotest.OneByteReader(bytes.NewReader(raw)))
			if !reflect.DeepEqual(whole, slow) {
				t.Fatalf("%s: read whole: %d records, error %q, truncated %v\nbyte by byte: %d records, error %q, truncated %v",
					format.name, len(whole.recs), whole.err, whole.truncated, len(slow.recs), slow.err, slow.truncated)
			}
		}
	})
}
