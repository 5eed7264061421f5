package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
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
