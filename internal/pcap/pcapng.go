package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// This file adds a reader for the pcapng format (the default output of
// modern Wireshark/dumpcap), so traces captured with current tooling
// feed the analyzer without conversion. Supported blocks: section
// header (SHB), interface description (IDB), enhanced packet (EPB), and
// the obsolete simple packet block (SPB); all other block types are
// skipped. Multi-section files and per-interface timestamp resolutions
// are handled.

// pcapng block type codes.
const (
	blockSHB = 0x0a0d0d0a
	blockIDB = 0x00000001
	blockEPB = 0x00000006
	blockSPB = 0x00000003
)

const byteOrderMagic = 0x1a2b3c4d

// ErrNotPcapng reports that the stream does not begin with a section
// header block.
var ErrNotPcapng = errors.New("pcap: not a pcapng stream")

// NGReader reads packets from a pcapng stream.
type NGReader struct {
	w     *window
	order order // noOrder until the first section header
	// interfaces carries per-interface metadata of the current section.
	interfaces []ngInterface
	snapLen    uint32
	truncated  bool
}

// Truncated reports whether the stream ended mid-block (a cut capture).
// Records before the cut were returned normally.
func (ng *NGReader) Truncated() bool { return ng.truncated }

type ngInterface struct {
	linkType uint16
	// tsDivisor converts raw timestamp units to nanoseconds:
	// nanos = raw * 1e9 / unitsPerSecond.
	unitsPerSecond uint64
}

// newNGReader parses the leading section header and returns a reader.
func newNGReader(w *window) (*NGReader, error) {
	ng := &NGReader{w: w}
	btype, body, err := ng.readBlock()
	if err != nil {
		return nil, err
	}
	if btype != blockSHB {
		return nil, ErrNotPcapng
	}
	if err := ng.parseSHB(body); err != nil {
		return nil, err
	}
	return ng, nil
}

// readBlock returns the type and body of the next block, sliced out of
// the stream's window (valid until the next readBlock). A section header
// fixes the byte order for the blocks after it; its own type code reads
// the same in both. io.EOF is a clean end of stream, between blocks;
// io.ErrUnexpectedEOF a cut inside one. Like the classic reader, a block
// the window already holds is sliced out of it after one length check.
func (ng *NGReader) readBlock() (uint32, []byte, error) {
	w := ng.w
	if w.hi-w.lo < 8 {
		if _, err := w.peek(8); err != nil {
			return 0, nil, err
		}
	}
	blk := w.buf[w.lo:w.hi]
	btype := binary.LittleEndian.Uint32(blk[0:4])
	kind, minTotal, maxTotal := "block", uint32(12), uint32(1<<26)
	if btype == blockSHB {
		// The byte-order magic decides endianness before the length can
		// be trusted.
		if len(blk) < 12 {
			if _, err := w.peek(12); err != nil {
				return 0, nil, err
			}
			blk = w.buf[w.lo:w.hi]
		}
		o := shbOrder(blk)
		if o == noOrder {
			return 0, nil, ErrNotPcapng
		}
		ng.order = o
		kind, minTotal, maxTotal = "SHB", 16, 1<<20
	}
	if ng.order == noOrder {
		return 0, nil, ErrNotPcapng
	}
	btype, total := ng.order.u32(blk[0:4]), ng.order.u32(blk[4:8])
	if total < minTotal || total%4 != 0 || total > maxTotal {
		return 0, nil, fmt.Errorf("pcap: bad %s length %d", kind, total)
	}
	if n := int(total); n <= len(blk) {
		w.lo += n
	} else {
		var err error
		if blk, err = w.next(n); err != nil {
			return 0, nil, err
		}
	}
	return btype, blk[8 : total-4], nil
}

func (ng *NGReader) parseSHB(body []byte) error {
	// body: byte-order magic (4), version (4), section length (8), options.
	if len(body) < 16 {
		return fmt.Errorf("pcap: SHB too short")
	}
	ng.interfaces = ng.interfaces[:0]
	return nil
}

func (ng *NGReader) parseIDB(body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("pcap: IDB too short")
	}
	iface := ngInterface{
		linkType:       ng.order.u16(body[0:2]),
		unitsPerSecond: 1_000_000, // default: microseconds
	}
	// Options begin at offset 8: scan for if_tsresol (code 9).
	opts := body[8:]
	for len(opts) >= 4 {
		code := ng.order.u16(opts[0:2])
		olen := int(ng.order.u16(opts[2:4]))
		padded := (olen + 3) &^ 3
		if len(opts) < 4+padded {
			break
		}
		if code == 9 && olen >= 1 {
			v := opts[4]
			if v&0x80 != 0 {
				// Capped like pow10: a shift of 64 or more would make
				// the unit zero, and every timestamp a division by it.
				iface.unitsPerSecond = 1 << min(v&0x7f, 63)
			} else {
				iface.unitsPerSecond = pow10(v)
			}
		}
		if code == 0 {
			break
		}
		opts = opts[4+padded:]
	}
	ng.interfaces = append(ng.interfaces, iface)
	return nil
}

func pow10(n uint8) uint64 {
	out := uint64(1)
	for i := uint8(0); i < n && i < 19; i++ {
		out *= 10
	}
	return out
}

// NextInto reads the next packet record into rec, skipping non-packet
// blocks, without allocating: rec.Data is a slice of the stream's read
// window (of the oversize buffer, for a block larger than the window)
// and is valid only until the next NextInto or Next call.
// io.EOF marks a clean end of stream; a cut mid-block yields io.EOF
// with Truncated() set.
func (ng *NGReader) NextInto(rec *Record) error {
	for {
		btype, body, err := ng.readBlock()
		if err == io.EOF {
			return io.EOF
		}
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				ng.truncated = true
				return io.EOF
			}
			return err
		}
		if packet, err := ng.block(btype, body, rec); packet || err != nil {
			return err
		}
	}
}

// block parses one block: a packet block into rec (packet reports it),
// a section or interface header into the reader's state. Other block
// types are skipped.
func (ng *NGReader) block(btype uint32, body []byte, rec *Record) (packet bool, err error) {
	switch btype {
	case blockSHB:
		return false, ng.parseSHB(body)
	case blockIDB:
		return false, ng.parseIDB(body)
	case blockEPB:
		return true, ng.parseEPB(body, rec)
	case blockSPB:
		return true, ng.parseSPB(body, rec)
	}
	return false, nil
}

// nextBatch is Stream.NextBatch for pcapng: the first packet record as
// NextInto reads it, then every one the window already holds whole,
// with the blocks between them.
func (ng *NGReader) nextBatch(recs []Record) (int, error) {
	if err := ng.NextInto(&recs[0]); err != nil {
		return 0, err
	}
	n := 1
	for n < len(recs) && ng.held(&recs[n]) {
		n++
	}
	return n, nil
}

// held reads the next packet record into rec, with the non-packet blocks
// before it, while the window holds each block whole. It reports false
// at the first block it does not hold, or that fails to parse; that block
// is left unconsumed, for the next NextInto to read or to report.
func (ng *NGReader) held(rec *Record) bool {
	for ng.holds() {
		lo := ng.w.lo
		btype, body, err := ng.readBlock()
		packet := false
		if err == nil {
			packet, err = ng.block(btype, body, rec)
		}
		if err != nil {
			ng.w.lo = lo
			return false
		}
		if packet {
			return true
		}
	}
	return false
}

// holds reports whether the window holds the next block whole, so that
// readBlock slices it out without a refill. A block whose header
// readBlock will refuse counts as held: the refusal needs no read.
func (ng *NGReader) holds() bool {
	blk := ng.w.buf[ng.w.lo:ng.w.hi]
	if len(blk) < 12 {
		return false
	}
	o := ng.order
	if binary.LittleEndian.Uint32(blk[0:4]) == blockSHB {
		o = shbOrder(blk)
	}
	return o == noOrder || int(o.u32(blk[4:8])) <= len(blk)
}

// shbOrder is the byte order a section header's byte-order magic
// (blk[8:12]) declares, or noOrder for a bad magic.
func shbOrder(blk []byte) order {
	switch binary.LittleEndian.Uint32(blk[8:12]) {
	case byteOrderMagic:
		return littleEndian
	case 0x4d3c2b1a:
		return bigEndian
	}
	return noOrder
}

// Next returns the next packet record, skipping non-packet blocks. The
// returned Data slice is a fresh copy owned by the caller; hot loops
// should prefer NextInto. io.EOF marks a clean end of stream.
func (ng *NGReader) Next() (Record, error) {
	var rec Record
	if err := ng.NextInto(&rec); err != nil {
		return Record{}, err
	}
	data := make([]byte, len(rec.Data))
	copy(data, rec.Data)
	rec.Data = data
	return rec, nil
}

func (ng *NGReader) parseEPB(body []byte, rec *Record) error {
	if len(body) < 20 {
		return fmt.Errorf("pcap: EPB too short")
	}
	ifIdx := ng.order.u32(body[0:4])
	tsHigh, tsLow, capLen, origLen := ng.order.words(body[4:20])
	if int(capLen) > len(body)-20 {
		return fmt.Errorf("pcap: EPB capture length %d exceeds block", capLen)
	}
	units := uint64(1_000_000)
	if int(ifIdx) < len(ng.interfaces) {
		units = ng.interfaces[ifIdx].unitsPerSecond
	}
	raw := uint64(tsHigh)<<32 | uint64(tsLow)
	sec := raw / units
	frac := raw % units
	nsec := frac * uint64(time.Second) / units
	rec.Timestamp = time.Unix(int64(sec), int64(nsec)).UTC()
	rec.OriginalLen = int(origLen)
	rec.Data = body[20 : 20+capLen]
	rec.PacketID = 0
	rec.HasPacketID = false
	// Options follow the padded packet data: scan for epb_packetid
	// (code 5, a 64-bit per-packet identifier — the cluster splitter's
	// global capture sequence number).
	opts := body[20+((int(capLen)+3)&^3):]
	for len(opts) >= 4 {
		code := ng.order.u16(opts[0:2])
		olen := int(ng.order.u16(opts[2:4]))
		padded := (olen + 3) &^ 3
		if len(opts) < 4+padded {
			break
		}
		if code == 5 && olen == 8 {
			rec.PacketID = ng.order.u64(opts[4:12])
			rec.HasPacketID = true
		}
		if code == 0 {
			break
		}
		opts = opts[4+padded:]
	}
	return nil
}

func (ng *NGReader) parseSPB(body []byte, rec *Record) error {
	if len(body) < 4 {
		return fmt.Errorf("pcap: SPB too short")
	}
	origLen := ng.order.u32(body[0:4])
	capLen := uint32(len(body) - 4)
	if ng.snapLen > 0 && origLen < capLen {
		capLen = origLen
	}
	rec.Timestamp = time.Time{}
	rec.OriginalLen = int(origLen)
	rec.Data = body[4 : 4+capLen]
	rec.PacketID = 0
	rec.HasPacketID = false
	return nil
}

// Stream is a format-agnostic record iterator over either classic pcap
// or pcapng, carrying the reader-level truncation state alongside the
// records.
type Stream struct {
	next      func() (Record, error)
	nextInto  func(*Record) error
	nextBatch func([]Record) (int, error)
	truncated func() bool
	nano      bool
}

// Next returns the next record, or io.EOF at end of stream (clean or
// cut — consult Truncated to distinguish). The returned Data is a fresh
// copy owned by the caller; hot loops should prefer NextInto.
func (s *Stream) Next() (Record, error) { return s.next() }

// NextInto reads the next record into rec without allocating: rec.Data
// borrows the underlying reader's buffer and is valid only until the
// next NextInto or Next call.
func (s *Stream) NextInto(rec *Record) error { return s.nextInto(rec) }

// BatchLen is the length of the record array NextBatch callers read
// runs into. A constant, not a knob: a run costs its reader one call and
// the engine one panic guard, and 256 records of a border tap's mix (141
// bytes a record on average) fill a quarter of a read window.
const BatchLen = 256

// NextBatch reads a run of records into recs and returns how many it
// read, without allocating. The first record is read as NextInto reads
// it, waiting for its bytes if it must; the rest are the records that
// follow it whole in the read window, so one call makes at most one
// refill of the window, and a live source's record is returned as soon
// as it has arrived. Every rec.Data borrows the reader's buffer and is
// valid until the next NextBatch, NextInto or Next call. A record the
// window holds only in part, or that is malformed, ends the run: it is
// read, or its error reported, by the next call. So n > 0 comes with a
// nil error, and io.EOF (clean end or cut — see Truncated) with n = 0.
// recs must not be empty.
func (s *Stream) NextBatch(recs []Record) (int, error) { return s.nextBatch(recs) }

// Truncated reports whether the underlying stream was cut mid-record.
func (s *Stream) Truncated() bool { return s.truncated() }

// Nanosecond reports whether record timestamps carry full nanosecond
// resolution: the global-header flag for classic pcap, always true for
// pcapng. Writers that preserve timestamp resolution consult this.
func (s *Stream) Nanosecond() bool { return s.nano }

// OpenStream sniffs the stream and returns a record iterator for either
// classic pcap or pcapng. It owns the stream's one read window: the
// first four bytes are peeked in it to decide the format, and the chosen
// reader consumes the same window from the start.
func OpenStream(r io.Reader) (*Stream, error) {
	w := newWindow(r)
	magic, err := w.peek(4)
	if err != nil {
		return nil, fmt.Errorf("pcap: sniffing magic: %w", err)
	}
	if binary.LittleEndian.Uint32(magic) == blockSHB {
		ng, err := newNGReader(w)
		if err != nil {
			return nil, err
		}
		return &Stream{next: ng.Next, nextInto: ng.NextInto, nextBatch: ng.nextBatch, truncated: ng.Truncated, nano: true}, nil
	}
	pr, err := newReader(w)
	if err != nil {
		return nil, err
	}
	return &Stream{next: pr.Next, nextInto: pr.NextInto, nextBatch: pr.nextBatch, truncated: pr.Truncated, nano: pr.Header().Nanosecond}, nil
}

// NGWriter writes pcapng streams (one section, one Ethernet interface,
// enhanced packet blocks with nanosecond timestamps) so zoomlens output
// opens in modern Wireshark without conversion.
type NGWriter struct {
	w io.Writer
	// scratch is the reused buffer each block is assembled in — header,
	// body, padding, trailer — so a block reaches w as exactly one Write.
	scratch []byte
}

// NewNGWriter emits the section header and interface description and
// returns a writer.
func NewNGWriter(w io.Writer, linkType uint16) (*NGWriter, error) {
	ng := &NGWriter{w: w}
	// SHB: byte-order magic, version 1.0, unknown section length.
	b := ng.begin(blockSHB)
	b = binary.LittleEndian.AppendUint32(b, byteOrderMagic)
	b = binary.LittleEndian.AppendUint16(b, 1)
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = binary.LittleEndian.AppendUint64(b, ^uint64(0))
	if err := ng.end(b); err != nil {
		return nil, err
	}
	// IDB: link type, snaplen 0, if_tsresol = 9 (nanoseconds).
	b = ng.begin(blockIDB)
	b = binary.LittleEndian.AppendUint16(b, linkType)
	b = append(b, 0, 0, 0, 0, 0, 0)       // reserved, snaplen
	b = append(b, 9, 0, 1, 0, 9, 0, 0, 0) // option 9 len 1 value 9 + pad
	b = append(b, 0, 0, 0, 0)             // opt_endofopt
	if err := ng.end(b); err != nil {
		return nil, err
	}
	return ng, nil
}

// WriteRecord appends one enhanced packet block. A timestamp outside
// the block's range (see packet) is refused, and nothing is written.
func (ng *NGWriter) WriteRecord(ts time.Time, data []byte) error {
	b, err := ng.packet(ts, data)
	if err != nil {
		return err
	}
	return ng.end(b)
}

// WriteRecordID appends one enhanced packet block carrying an
// epb_packetid option (code 5). The cluster splitter stamps each
// forwarded frame with its global capture sequence number this way, so
// worker processes can reconstruct the exact cross-worker capture order
// the byte-identical merge invariant depends on.
func (ng *NGWriter) WriteRecordID(ts time.Time, data []byte, id uint64) error {
	b, err := ng.packet(ts, data)
	if err != nil {
		return err
	}
	b = pad4(b)               // options start 32-bit aligned
	b = append(b, 5, 0, 8, 0) // epb_packetid, length 8
	b = binary.LittleEndian.AppendUint64(b, id)
	b = append(b, 0, 0, 0, 0) // opt_endofopt
	return ng.end(b)
}

// packet begins an enhanced packet block in the scratch buffer: the
// fixed fields and the packet data, options and trailer still to come.
// The timestamp is nanoseconds since 1970 as UnixNano gives them, so a
// time before 1970 or after 2262-04-11 23:47:16.854775807 UTC, where
// UnixNano is not defined, is refused.
func (ng *NGWriter) packet(ts time.Time, data []byte) ([]byte, error) {
	if ts.Before(time.Unix(0, 0)) || ts.After(time.Unix(0, math.MaxInt64)) {
		return nil, fmt.Errorf("pcapng: %w: %s is not in 1970 to 2262-04-11 23:47:16.854775807 UTC", ErrTimeRange, ts.UTC().Format(time.RFC3339Nano))
	}
	raw := uint64(ts.UnixNano())
	b := ng.begin(blockEPB)
	b = binary.LittleEndian.AppendUint32(b, 0) // interface 0
	b = binary.LittleEndian.AppendUint32(b, uint32(raw>>32))
	b = binary.LittleEndian.AppendUint32(b, uint32(raw))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(data)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(data)))
	return append(b, data...), nil
}

// begin starts a block in the scratch buffer: the type code and a
// placeholder for the total length, which end fills in.
func (ng *NGWriter) begin(btype uint32) []byte {
	b := binary.LittleEndian.AppendUint32(ng.scratch[:0], btype)
	return append(b, 0, 0, 0, 0)
}

// end pads the block body to 32 bits, writes the total length before and
// after it, and hands the whole block to the underlying writer in one
// Write.
func (ng *NGWriter) end(b []byte) error {
	b = pad4(b)
	total := uint32(len(b) + 4)
	binary.LittleEndian.PutUint32(b[4:8], total)
	b = binary.LittleEndian.AppendUint32(b, total)
	ng.scratch = b
	_, err := ng.w.Write(b)
	return err
}

// pad4 zero-pads b to a multiple of four bytes.
func pad4(b []byte) []byte {
	for len(b)%4 != 0 {
		b = append(b, 0)
	}
	return b
}
