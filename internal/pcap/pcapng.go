package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
	r     io.Reader
	order binary.ByteOrder
	// interfaces carries per-interface metadata of the current section.
	interfaces []ngInterface
	snapLen    uint32
	truncated  bool
	// buf is the reused block buffer; record Data returned by NextInto
	// aliases it and is valid only until the next block is read.
	buf []byte
	// hdr is the persistent block-header scratch: a local would escape
	// through the io.Reader interface call and cost one heap allocation
	// per block.
	hdr [8]byte
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

// NewNGReader parses the leading section header and returns a reader.
func NewNGReader(r io.Reader) (*NGReader, error) {
	ng := &NGReader{r: r}
	btype, body, err := ng.readBlockHeaderless()
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

// readBlockHeaderless reads one block assuming little-endian lengths
// (resolved properly once the SHB fixes the byte order; the SHB's own
// type code is order-independent).
func (ng *NGReader) readBlockHeaderless() (uint32, []byte, error) {
	if _, err := io.ReadFull(ng.r, ng.hdr[:]); err != nil {
		return 0, nil, err
	}
	btype := binary.LittleEndian.Uint32(ng.hdr[0:4])
	if btype == blockSHB {
		// Peek the byte-order magic to determine endianness before
		// trusting the length.
		var bom [4]byte
		if _, err := io.ReadFull(ng.r, bom[:]); err != nil {
			return 0, nil, midEOF(err)
		}
		switch binary.LittleEndian.Uint32(bom[:]) {
		case byteOrderMagic:
			ng.order = binary.LittleEndian
		case 0x4d3c2b1a:
			ng.order = binary.BigEndian
		default:
			return 0, nil, ErrNotPcapng
		}
		total := ng.order.Uint32(ng.hdr[4:8])
		if total < 16 || total%4 != 0 || total > 1<<20 {
			return 0, nil, fmt.Errorf("pcap: bad SHB length %d", total)
		}
		body := ng.grow(int(total - 8))
		copy(body, bom[:])
		if _, err := io.ReadFull(ng.r, body[4:]); err != nil {
			return 0, nil, midEOF(err)
		}
		return btype, body[:total-12], nil
	}
	if ng.order == nil {
		return 0, nil, ErrNotPcapng
	}
	total := ng.order.Uint32(ng.hdr[4:8])
	if total < 12 || total%4 != 0 || total > 1<<26 {
		return 0, nil, fmt.Errorf("pcap: bad block length %d", total)
	}
	body := ng.grow(int(total - 8))
	if _, err := io.ReadFull(ng.r, body); err != nil {
		return 0, nil, midEOF(err)
	}
	return btype, body[:total-12], nil
}

// grow returns ng.buf resized to n bytes, reallocating only when the
// block is larger than any seen before.
func (ng *NGReader) grow(n int) []byte {
	if n > cap(ng.buf) {
		ng.buf = make([]byte, n)
	}
	return ng.buf[:n]
}

// midEOF upgrades a bare io.EOF hit after a block header was already
// consumed to io.ErrUnexpectedEOF, so Next can tell a clean end of
// stream from a mid-block cut.
func midEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
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
		linkType:       ng.order.Uint16(body[0:2]),
		unitsPerSecond: 1_000_000, // default: microseconds
	}
	// Options begin at offset 8: scan for if_tsresol (code 9).
	opts := body[8:]
	for len(opts) >= 4 {
		code := ng.order.Uint16(opts[0:2])
		olen := int(ng.order.Uint16(opts[2:4]))
		padded := (olen + 3) &^ 3
		if len(opts) < 4+padded {
			break
		}
		if code == 9 && olen >= 1 {
			v := opts[4]
			if v&0x80 != 0 {
				iface.unitsPerSecond = 1 << (v & 0x7f)
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
// blocks, without allocating: rec.Data borrows the reader's block
// buffer and is valid only until the next NextInto or Next call.
// io.EOF marks a clean end of stream; a cut mid-block yields io.EOF
// with Truncated() set.
func (ng *NGReader) NextInto(rec *Record) error {
	for {
		btype, body, err := ng.readBlockHeaderless()
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
		switch btype {
		case blockSHB:
			if err := ng.parseSHB(body); err != nil {
				return err
			}
		case blockIDB:
			if err := ng.parseIDB(body); err != nil {
				return err
			}
		case blockEPB:
			return ng.parseEPB(body, rec)
		case blockSPB:
			return ng.parseSPB(body, rec)
		default:
			// skip
		}
	}
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
	ifIdx := ng.order.Uint32(body[0:4])
	tsHigh := ng.order.Uint32(body[4:8])
	tsLow := ng.order.Uint32(body[8:12])
	capLen := ng.order.Uint32(body[12:16])
	origLen := ng.order.Uint32(body[16:20])
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
		code := ng.order.Uint16(opts[0:2])
		olen := int(ng.order.Uint16(opts[2:4]))
		padded := (olen + 3) &^ 3
		if len(opts) < 4+padded {
			break
		}
		if code == 5 && olen == 8 {
			rec.PacketID = ng.order.Uint64(opts[4:12])
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
	origLen := ng.order.Uint32(body[0:4])
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

// Truncated reports whether the underlying stream was cut mid-record.
func (s *Stream) Truncated() bool { return s.truncated() }

// Nanosecond reports whether record timestamps carry full nanosecond
// resolution: the global-header flag for classic pcap, always true for
// pcapng. Writers that preserve timestamp resolution consult this.
func (s *Stream) Nanosecond() bool { return s.nano }

// OpenStream sniffs the stream and returns a record iterator for either
// classic pcap or pcapng. It reads the first four bytes to decide.
func OpenStream(r io.Reader) (*Stream, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("pcap: sniffing magic: %w", err)
	}
	joined := io.MultiReader(bytesReader(magic[:]), r)
	if binary.LittleEndian.Uint32(magic[:]) == blockSHB {
		ng, err := NewNGReader(joined)
		if err != nil {
			return nil, err
		}
		return &Stream{next: ng.Next, nextInto: ng.NextInto, truncated: ng.Truncated, nano: true}, nil
	}
	pr, err := NewReader(joined)
	if err != nil {
		return nil, err
	}
	return &Stream{next: pr.Next, nextInto: pr.NextInto, truncated: pr.Truncated, nano: pr.Header().Nanosecond}, nil
}

// bytesReader avoids importing bytes for one call site.
type byteSliceReader struct {
	b []byte
}

func bytesReader(b []byte) io.Reader { return &byteSliceReader{b} }

func (r *byteSliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// NGWriter writes pcapng streams (one section, one Ethernet interface,
// enhanced packet blocks with nanosecond timestamps) so zoomlens output
// opens in modern Wireshark without conversion.
type NGWriter struct {
	w io.Writer
}

// NewNGWriter emits the section header and interface description and
// returns a writer.
func NewNGWriter(w io.Writer, linkType uint16) (*NGWriter, error) {
	ng := &NGWriter{w: w}
	// SHB: byte-order magic, version 1.0, unknown section length.
	shb := make([]byte, 16)
	binary.LittleEndian.PutUint32(shb[0:4], byteOrderMagic)
	binary.LittleEndian.PutUint16(shb[4:6], 1)
	for i := 8; i < 16; i++ {
		shb[i] = 0xff
	}
	if err := ng.writeBlock(blockSHB, shb); err != nil {
		return nil, err
	}
	// IDB: link type, snaplen 0, if_tsresol = 9 (nanoseconds).
	idb := make([]byte, 8, 20)
	binary.LittleEndian.PutUint16(idb[0:2], linkType)
	idb = append(idb, 9, 0, 1, 0, 9, 0, 0, 0) // option 9 len 1 value 9 + pad
	idb = append(idb, 0, 0, 0, 0)             // opt_endofopt
	if err := ng.writeBlock(blockIDB, idb); err != nil {
		return nil, err
	}
	return ng, nil
}

// WriteRecord appends one enhanced packet block.
func (ng *NGWriter) WriteRecord(ts time.Time, data []byte) error {
	raw := uint64(ts.UnixNano())
	body := make([]byte, 20, 20+len(data))
	binary.LittleEndian.PutUint32(body[0:4], 0) // interface 0
	binary.LittleEndian.PutUint32(body[4:8], uint32(raw>>32))
	binary.LittleEndian.PutUint32(body[8:12], uint32(raw))
	binary.LittleEndian.PutUint32(body[12:16], uint32(len(data)))
	binary.LittleEndian.PutUint32(body[16:20], uint32(len(data)))
	body = append(body, data...)
	return ng.writeBlock(blockEPB, body)
}

// WriteRecordID appends one enhanced packet block carrying an
// epb_packetid option (code 5). The cluster splitter stamps each
// forwarded frame with its global capture sequence number this way, so
// worker processes can reconstruct the exact cross-worker capture order
// the byte-identical merge invariant depends on.
func (ng *NGWriter) WriteRecordID(ts time.Time, data []byte, id uint64) error {
	raw := uint64(ts.UnixNano())
	pad := (4 - len(data)%4) % 4
	body := make([]byte, 20, 20+len(data)+pad+16)
	binary.LittleEndian.PutUint32(body[0:4], 0) // interface 0
	binary.LittleEndian.PutUint32(body[4:8], uint32(raw>>32))
	binary.LittleEndian.PutUint32(body[8:12], uint32(raw))
	binary.LittleEndian.PutUint32(body[12:16], uint32(len(data)))
	binary.LittleEndian.PutUint32(body[16:20], uint32(len(data)))
	body = append(body, data...)
	for i := 0; i < pad; i++ {
		body = append(body, 0) // options start 32-bit aligned
	}
	body = append(body, 5, 0, 8, 0) // epb_packetid, length 8
	body = binary.LittleEndian.AppendUint64(body, id)
	body = append(body, 0, 0, 0, 0) // opt_endofopt
	return ng.writeBlock(blockEPB, body)
}

func (ng *NGWriter) writeBlock(btype uint32, body []byte) error {
	pad := (4 - len(body)%4) % 4
	total := uint32(12 + len(body) + pad)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], btype)
	binary.LittleEndian.PutUint32(hdr[4:8], total)
	if _, err := ng.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := ng.w.Write(body); err != nil {
		return err
	}
	if pad > 0 {
		if _, err := ng.w.Write(make([]byte, pad)); err != nil {
			return err
		}
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], total)
	_, err := ng.w.Write(tail[:])
	return err
}
