// Package pcap reads and writes packet capture files in the classic
// libpcap format (the format produced by tcpdump and consumed by
// Wireshark). Both microsecond- and nanosecond-resolution captures are
// supported, in either byte order, without external dependencies.
//
// The package is deliberately small: a Reader that yields one Record at a
// time and a Writer that appends records. Higher layers (decoding,
// filtering) live elsewhere.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// Magic numbers identifying the global header, per the libpcap file format.
const (
	MagicMicroseconds        = 0xa1b2c3d4
	MagicNanoseconds         = 0xa1b23c4d
	magicMicrosecondsSwapped = 0xd4c3b2a1
	magicNanosecondsSwapped  = 0x4d3cb2a1
)

// Link types used by this repository. Values follow the pcap LINKTYPE
// registry.
const (
	LinkTypeEthernet uint32 = 1
	LinkTypeRawIP    uint32 = 101
)

const (
	globalHeaderLen = 24
	recordHeaderLen = 16
	// DefaultSnapLen is the snapshot length written to new files. Zoom
	// analysis needs full packets, so it is generous.
	DefaultSnapLen = 262144
)

// ErrBadMagic reports that the stream does not begin with a known pcap
// magic number.
var ErrBadMagic = errors.New("pcap: bad magic number")

// Header is the decoded pcap global header.
type Header struct {
	// Nanosecond reports whether record timestamps carry nanoseconds
	// (true) or microseconds (false) in their sub-second field.
	Nanosecond bool
	// VersionMajor and VersionMinor are the format version, normally 2.4.
	VersionMajor uint16
	VersionMinor uint16
	// SnapLen is the maximum number of bytes captured per packet.
	SnapLen uint32
	// LinkType identifies the layer-2 framing of every record.
	LinkType uint32
}

// Record is a single captured packet.
type Record struct {
	// Timestamp is the capture time.
	Timestamp time.Time
	// OriginalLen is the packet's length on the wire, which may exceed
	// len(Data) if the capture was truncated by the snap length.
	OriginalLen int
	// Data is the captured bytes, starting at the file's link type.
	Data []byte
	// PacketID is the 64-bit epb_packetid option of a pcapng enhanced
	// packet block, valid only when HasPacketID is set. The cluster
	// splitter uses it to carry the global capture sequence number to
	// worker processes; classic pcap has no per-record options, so
	// records read from it never carry one.
	PacketID    uint64
	HasPacketID bool
}

// Reader reads records from a pcap stream.
type Reader struct {
	w         *window
	order     order
	hdr       Header
	truncated bool
}

// order is a stream's byte order, fixed by its header. The decoders
// branch on it and read with binary.LittleEndian or binary.BigEndian
// directly, where the binary.ByteOrder interface would cost a call per
// field of every record header.
type order uint8

const (
	noOrder order = iota // a pcapng stream before its first section header
	littleEndian
	bigEndian
)

func (o order) u16(b []byte) uint16 {
	if o == bigEndian {
		return binary.BigEndian.Uint16(b)
	}
	return binary.LittleEndian.Uint16(b)
}

func (o order) u32(b []byte) uint32 {
	if o == bigEndian {
		return binary.BigEndian.Uint32(b)
	}
	return binary.LittleEndian.Uint32(b)
}

func (o order) u64(b []byte) uint64 {
	if o == bigEndian {
		return binary.BigEndian.Uint64(b)
	}
	return binary.LittleEndian.Uint64(b)
}

// words decodes the four 32-bit fields of b[0:16] in one branch: a
// classic record header, or an enhanced packet block's timestamp and
// lengths.
func (o order) words(b []byte) (w0, w1, w2, w3 uint32) {
	b = b[:16]
	if o == bigEndian {
		return binary.BigEndian.Uint32(b[0:4]), binary.BigEndian.Uint32(b[4:8]),
			binary.BigEndian.Uint32(b[8:12]), binary.BigEndian.Uint32(b[12:16])
	}
	return binary.LittleEndian.Uint32(b[0:4]), binary.LittleEndian.Uint32(b[4:8]),
		binary.LittleEndian.Uint32(b[8:12]), binary.LittleEndian.Uint32(b[12:16])
}

// NewReader parses the global header from r and returns a Reader
// positioned at the first record. The Reader reads r through a window of
// its own (see window), so it may have consumed more of r than the
// records it has returned.
func NewReader(r io.Reader) (*Reader, error) { return newReader(newWindow(r)) }

func newReader(w *window) (*Reader, error) {
	buf, err := w.next(globalHeaderLen)
	if err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	var o order
	var nano bool
	switch binary.LittleEndian.Uint32(buf[0:4]) {
	case MagicMicroseconds:
		o, nano = littleEndian, false
	case MagicNanoseconds:
		o, nano = littleEndian, true
	case magicMicrosecondsSwapped:
		o, nano = bigEndian, false
	case magicNanosecondsSwapped:
		o, nano = bigEndian, true
	default:
		return nil, ErrBadMagic
	}
	rd := &Reader{w: w, order: o}
	rd.hdr = Header{
		Nanosecond:   nano,
		VersionMajor: o.u16(buf[4:6]),
		VersionMinor: o.u16(buf[6:8]),
		SnapLen:      o.u32(buf[16:20]),
		LinkType:     o.u32(buf[20:24]),
	}
	return rd, nil
}

// Header returns the file's global header.
func (r *Reader) Header() Header { return r.hdr }

// Truncated reports whether the stream ended mid-record: the capture was
// cut (a crashed or interrupted tcpdump, a partial copy). Every record
// before the cut was returned normally, so the results computed from
// them are valid partial results. Matching the pcapng reader, the cut
// itself surfaces as a clean io.EOF from Next, not an error.
func (r *Reader) Truncated() bool { return r.truncated }

// NextInto reads the next record into rec without allocating: rec.Data
// is a slice of the stream's read window (of the oversize buffer, for a
// record larger than the window) and is valid only until the next
// NextInto or Next call. Callers that retain the bytes must copy them.
// io.EOF marks a clean end of stream; a cut mid-record yields io.EOF
// with Truncated() set.
//
// A record the window already holds, header and body, is sliced out of
// it after one length check (held); a refill, an oversize record, a cut
// and a record that fails a check go through the window's peek and next.
func (r *Reader) NextInto(rec *Record) error {
	if r.held(rec) {
		return nil
	}
	w := r.w
	hdr, err := w.peek(recordHeaderLen)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			r.truncated = true
			return io.EOF
		}
		return fmt.Errorf("pcap: reading record header: %w", err)
	}
	sec, sub, capLen, origLen := r.order.words(hdr)
	if capLen > r.hdr.SnapLen && r.hdr.SnapLen != 0 {
		return fmt.Errorf("pcap: record capture length %d exceeds snap length %d", capLen, r.hdr.SnapLen)
	}
	const sanityCap = 1 << 26
	if capLen > sanityCap {
		return fmt.Errorf("pcap: implausible record capture length %d", capLen)
	}
	// Header and body leave the window as one slice.
	n := recordHeaderLen + int(capLen)
	whole, err := w.next(n)
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			r.truncated = true
			return io.EOF
		}
		return fmt.Errorf("pcap: reading record body: %w", err)
	}
	r.fill(rec, sec, sub, origLen, whole[recordHeaderLen:n])
	return nil
}

// fill sets rec from a record header's fields and its body.
func (r *Reader) fill(rec *Record, sec, sub, origLen uint32, data []byte) {
	nsec := int64(sub)
	if !r.hdr.Nanosecond {
		nsec *= 1000
	}
	rec.Timestamp = time.Unix(int64(sec), nsec).UTC()
	rec.OriginalLen = int(origLen)
	rec.Data = data
	rec.PacketID = 0
	rec.HasPacketID = false
}

// nextBatch is Stream.NextBatch for classic pcap: the first record as
// NextInto reads it, then every record the window already holds whole.
func (r *Reader) nextBatch(recs []Record) (int, error) {
	if err := r.NextInto(&recs[0]); err != nil {
		return 0, err
	}
	n := 1
	for n < len(recs) && r.held(&recs[n]) {
		n++
	}
	return n, nil
}

// held reads the next record into rec if the window holds it whole and
// it passes NextInto's checks. Otherwise it consumes nothing and reports
// false, for NextInto's refill path to read the record or report what is
// wrong with it.
func (r *Reader) held(rec *Record) bool {
	w := r.w
	whole := w.buf[w.lo:w.hi]
	if len(whole) < recordHeaderLen {
		return false
	}
	sec, sub, capLen, origLen := r.order.words(whole)
	// A record the window holds whole is far under NextInto's sanity cap.
	n := recordHeaderLen + int(capLen)
	if n > len(whole) || capLen > r.hdr.SnapLen && r.hdr.SnapLen != 0 {
		return false
	}
	w.lo += n
	r.fill(rec, sec, sub, origLen, whole[recordHeaderLen:n])
	return true
}

// Next returns the next record, or io.EOF at a clean end of stream. The
// returned Data slice is a fresh copy owned by the caller; hot loops
// should prefer NextInto, which lends the Reader's buffer instead. A
// stream cut mid-record yields io.EOF with Truncated() set.
func (r *Reader) Next() (Record, error) {
	var rec Record
	if err := r.NextInto(&rec); err != nil {
		return Record{}, err
	}
	data := make([]byte, len(rec.Data))
	copy(data, rec.Data)
	rec.Data = data
	return rec, nil
}

// Writer appends pcap records to an underlying stream. Writers always emit
// little-endian, version 2.4 files.
type Writer struct {
	w       io.Writer
	nano    bool
	snapLen uint32
	// scratch is the reused buffer each record is assembled in, so a
	// record reaches w as exactly one Write: a reader on the other end of
	// a pipe never observes half of one.
	scratch []byte
}

// WriterOptions configures NewWriter.
type WriterOptions struct {
	// LinkType of all records; defaults to Ethernet.
	LinkType uint32
	// SnapLen written to the global header; defaults to DefaultSnapLen.
	SnapLen uint32
	// Nanosecond selects nanosecond timestamp resolution.
	Nanosecond bool
}

// NewWriter writes a global header to w and returns a Writer.
func NewWriter(w io.Writer, opts WriterOptions) (*Writer, error) {
	if opts.LinkType == 0 {
		opts.LinkType = LinkTypeEthernet
	}
	if opts.SnapLen == 0 {
		opts.SnapLen = DefaultSnapLen
	}
	magic := uint32(MagicMicroseconds)
	if opts.Nanosecond {
		magic = MagicNanoseconds
	}
	var buf [globalHeaderLen]byte
	le := binary.LittleEndian
	le.PutUint32(buf[0:4], magic)
	le.PutUint16(buf[4:6], 2)
	le.PutUint16(buf[6:8], 4)
	// thiszone and sigfigs stay zero.
	le.PutUint32(buf[16:20], opts.SnapLen)
	le.PutUint32(buf[20:24], opts.LinkType)
	if _, err := w.Write(buf[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing global header: %w", err)
	}
	return &Writer{w: w, nano: opts.Nanosecond, snapLen: opts.SnapLen}, nil
}

// ErrTimeRange is wrapped by both writers' refusal of a timestamp their
// format cannot hold. Nothing is written for such a record, so the
// stream stays valid and the caller may go on with the next one.
var ErrTimeRange = errors.New("timestamp outside the format's range")

// WriteRecord appends one packet. Data longer than the snap length is
// truncated, with OriginalLen preserved. A timestamp the format's
// unsigned 32-bit seconds cannot hold — before 1970 or after
// 2106-02-07 06:28:15 UTC — is refused, and nothing is written.
func (w *Writer) WriteRecord(ts time.Time, data []byte) error {
	if sec := ts.Unix(); sec < 0 || sec > math.MaxUint32 {
		return fmt.Errorf("pcap: %w: %s is not in 1970 to 2106-02-07 06:28:15 UTC", ErrTimeRange, ts.UTC().Format(time.RFC3339Nano))
	}
	origLen := len(data)
	if uint32(len(data)) > w.snapLen {
		data = data[:w.snapLen]
	}
	sub := ts.Nanosecond()
	if !w.nano {
		sub /= 1000
	}
	b := w.scratch[:0]
	b = binary.LittleEndian.AppendUint32(b, uint32(ts.Unix()))
	b = binary.LittleEndian.AppendUint32(b, uint32(sub))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(data)))
	b = binary.LittleEndian.AppendUint32(b, uint32(origLen))
	b = append(b, data...)
	w.scratch = b
	if _, err := w.w.Write(b); err != nil {
		return fmt.Errorf("pcap: writing record: %w", err)
	}
	return nil
}
