package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
	"time"
)

// writeLog records what each Write call handed over.
type writeLog struct{ writes [][]byte }

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(p))
	return len(p), nil
}

// TestWritersOneWritePerRecord: every record (classic) and every block
// (pcapng) reaches the underlying writer as exactly one Write holding
// exactly that record — on zoomcap's output file and zoomsplit's worker
// pipes each Write is a write(2), and a reader on the far end of a pipe
// must never see half a block. The bytes are what the format says,
// checked against serialisations built field by field.
func TestWritersOneWritePerRecord(t *testing.T) {
	payloads := smallPayloads()

	t.Run("pcap", func(t *testing.T) {
		var log writeLog
		w, err := NewWriter(&log, WriterOptions{Nanosecond: true, SnapLen: 1 << 24})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range payloads {
			if err := w.WriteRecord(contractTime(i), p); err != nil {
				t.Fatal(err)
			}
		}
		want := contractCaptures(payloads)[0] // pcap-le
		checkWrites(t, log.writes, want.raw, want.bounds)
	})

	t.Run("pcapng", func(t *testing.T) {
		var log writeLog
		w, err := NewNGWriter(&log, uint16(LinkTypeEthernet))
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range payloads {
			if err := w.WriteRecord(contractTime(i), p); err != nil {
				t.Fatal(err)
			}
		}
		want := contractCaptures(payloads)[1] // pcapng-le
		checkWrites(t, log.writes, want.raw, want.bounds)
	})

	t.Run("pcapng-packetid", func(t *testing.T) {
		var log writeLog
		w, err := NewNGWriter(&log, uint16(LinkTypeEthernet))
		if err != nil {
			t.Fatal(err)
		}
		ref := &ngWriter{order: binary.LittleEndian}
		ref.shb()
		bounds := []int{ref.buf.Len()}
		ref.idb(uint16(LinkTypeEthernet), 9)
		bounds = append(bounds, ref.buf.Len())
		for i, p := range payloads {
			id := uint64(i)<<40 | 7
			if err := w.WriteRecordID(contractTime(i), p, id); err != nil {
				t.Fatal(err)
			}
			// EPB body by hand: fixed fields, padded data, epb_packetid,
			// opt_endofopt.
			raw := uint64(contractTime(i).UnixNano())
			body := binary.LittleEndian.AppendUint32(nil, 0)
			body = binary.LittleEndian.AppendUint32(body, uint32(raw>>32))
			body = binary.LittleEndian.AppendUint32(body, uint32(raw))
			body = binary.LittleEndian.AppendUint32(body, uint32(len(p)))
			body = binary.LittleEndian.AppendUint32(body, uint32(len(p)))
			body = append(body, p...)
			body = append(body, make([]byte, (4-len(p)%4)%4)...)
			body = append(body, 5, 0, 8, 0)
			body = binary.LittleEndian.AppendUint64(body, id)
			body = append(body, 0, 0, 0, 0)
			ref.block(blockEPB, body)
			bounds = append(bounds, ref.buf.Len())
		}
		checkWrites(t, log.writes, ref.buf.Bytes(), bounds)

		// And the reader gets the IDs back.
		s, err := OpenStream(bytes.NewReader(ref.buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var rec Record
		for i := range payloads {
			if err := s.NextInto(&rec); err != nil || !rec.HasPacketID || rec.PacketID != uint64(i)<<40|7 {
				t.Fatalf("record %d: err=%v id=%#x (has=%v)", i, err, rec.PacketID, rec.HasPacketID)
			}
		}
	})
}

// checkWrites demands that the writes are the pieces of want that end at
// bounds, in order.
func checkWrites(t *testing.T, writes [][]byte, want []byte, bounds []int) {
	t.Helper()
	if got := bytes.Join(writes, nil); !bytes.Equal(got, want) {
		t.Fatalf("stream differs from the reference serialisation:\n got %x\nwant %x", got, want)
	}
	if len(writes) != len(bounds) {
		t.Fatalf("%d Writes for %d headers and records", len(writes), len(bounds))
	}
	off := 0
	for i, w := range writes {
		if off += len(w); off != bounds[i] {
			t.Fatalf("Write %d ends at offset %d, record boundary is %d", i, off, bounds[i])
		}
	}
}

// TestWritersAllocateNothingPerRecord: the scratch buffer is reused, so
// the steady state is zero allocations per record.
func TestWritersAllocateNothingPerRecord(t *testing.T) {
	data := bytes.Repeat([]byte{0xab}, 1201) // unaligned: the padding path too
	ts := time.Unix(1700000000, 123456789)
	w, err := NewWriter(io.Discard, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ng, err := NewNGWriter(io.Discard, uint16(LinkTypeEthernet))
	if err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func() error{
		"pcap":            func() error { return w.WriteRecord(ts, data) },
		"pcapng":          func() error { return ng.WriteRecord(ts, data) },
		"pcapng-packetid": func() error { return ng.WriteRecordID(ts, data, 42) },
	} {
		if err := write(); err != nil { // grows the scratch buffer once
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() { write() }); allocs != 0 {
			t.Errorf("%s: %.1f allocs per record, want 0", name, allocs)
		}
	}
}

// TestWritersRefuseUnrepresentableTimes: each writer writes a timestamp
// its format holds exactly, and refuses one it cannot hold instead of
// writing another time — classic pcap has unsigned 32-bit seconds (1970
// to 2106-02-07 06:28:15 UTC), the pcapng writer 64-bit nanoseconds since
// 1970 as UnixNano gives them (to 2262-04-11 23:47:16.854775807 UTC). A
// refused record leaves nothing in the stream: what reads back is the
// record before it.
func TestWritersRefuseUnrepresentableTimes(t *testing.T) {
	base := time.Date(2022, 5, 5, 10, 0, 0, 1000, time.UTC)
	lastNG := time.Unix(0, math.MaxInt64).UTC()
	for _, tc := range []struct {
		name         string
		at           time.Time
		pcapOK, ngOK bool
	}{
		{"monotone", base.Add(time.Second), true, true},
		{"1 s backward", base.Add(-time.Second), true, true},
		{"last pcap second", time.Date(2106, 2, 7, 6, 28, 15, 999999000, time.UTC), true, true},
		{"first second past pcap", time.Date(2106, 2, 7, 6, 28, 16, 0, time.UTC), false, true},
		{"2107", time.Date(2107, 1, 1, 0, 0, 0, 0, time.UTC), false, true},
		{"last pcapng second", lastNG.Truncate(time.Second), false, true},
		{"last pcapng nanosecond", lastNG, false, true},
		{"past pcapng", lastNG.Add(time.Nanosecond), false, false},
		{"year 3000", time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC), false, false},
		{"1969", time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC), false, false},
		{"1970", time.Unix(0, 0).UTC(), true, true},
	} {
		for _, w := range []struct {
			format string
			ok     bool
			res    time.Duration // the resolution the format stores
			open   func(io.Writer) (func(time.Time, []byte) error, error)
		}{
			{"pcap-us", tc.pcapOK, time.Microsecond, func(out io.Writer) (func(time.Time, []byte) error, error) {
				w, err := NewWriter(out, WriterOptions{})
				return w.WriteRecord, err
			}},
			{"pcap-ns", tc.pcapOK, time.Nanosecond, func(out io.Writer) (func(time.Time, []byte) error, error) {
				w, err := NewWriter(out, WriterOptions{Nanosecond: true})
				return w.WriteRecord, err
			}},
			{"pcapng", tc.ngOK, time.Nanosecond, func(out io.Writer) (func(time.Time, []byte) error, error) {
				w, err := NewNGWriter(out, uint16(LinkTypeEthernet))
				return w.WriteRecord, err
			}},
			{"pcapng-packetid", tc.ngOK, time.Nanosecond, func(out io.Writer) (func(time.Time, []byte) error, error) {
				w, err := NewNGWriter(out, uint16(LinkTypeEthernet))
				return func(at time.Time, data []byte) error { return w.WriteRecordID(at, data, 7) }, err
			}},
		} {
			var buf bytes.Buffer
			write, err := w.open(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := write(base, []byte{1, 2, 3, 4}); err != nil {
				t.Fatalf("%s: the base record: %v", w.format, err)
			}
			err = write(tc.at, []byte{5, 6, 7, 8})
			if (err == nil) != w.ok {
				t.Errorf("%s/%s: writing %v returned %v, want ok=%v", tc.name, w.format, tc.at, err, w.ok)
				continue
			}
			if err != nil && !errors.Is(err, ErrTimeRange) {
				t.Errorf("%s/%s: refusal %v does not wrap ErrTimeRange", tc.name, w.format, err)
			}
			want := []time.Time{base}
			if w.ok {
				want = append(want, tc.at.Truncate(w.res))
			}
			s, err := OpenStream(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var got []time.Time
			var rec Record
			for s.NextInto(&rec) == nil {
				got = append(got, rec.Timestamp)
			}
			if len(got) != len(want) {
				t.Errorf("%s/%s: %d records read back, want %d", tc.name, w.format, len(got), len(want))
				continue
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Errorf("%s/%s: record %d reads back at %v, want %v", tc.name, w.format, i, got[i].UTC(), want[i])
				}
			}
		}
	}
}
