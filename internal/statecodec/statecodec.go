// Package statecodec is the compact binary codec behind the analyzer's
// checkpoint/restore boundary. The format is length-prefixed and
// reflection-free — plain append/slice operations on the hot path — so
// a 10k-stream checkpoint encodes in milliseconds.
//
// A layer lists its fields once. Every stateful layer has one method
// that walks its fields through a Codec, which either wraps a Writer
// (the pass encodes) or a Reader (the pass decodes): c.U64(&t.total)
// writes the field in one direction and assigns it in the other, so the
// two directions cannot drift apart and a new field is one line. The
// collection helpers (Map, MapVal, Keys, Tombstones, Slice, LogTail) own
// everything that used to be repeated per layer: deterministic key
// order, the hostile-count guard, chunked slab allocation, and the
// rejection of duplicate or unsorted keys. Writer and Reader remain for
// callers that handle a value at a time (file headers, the ZLOB
// observation log); the wire primitives exist once, in the Codec.
//
// A full record is a delta with everything dirty. A delta pass writes,
// per keyed collection, what the collection's ChangeLog holds: tombstones
// for the base's records deleted since the last checkpoint, then the
// records changed since, whole; a full pass
// (NewEncoder's full flag) is the same walk with every record selected,
// no tombstones and append-only baselines at 0. Decoding does not
// distinguish the two: tombstones delete, records upsert, tails append
// — onto a freshly built layer for a full record, onto the layer at the
// record's base for a delta.
//
// Conventions:
//
//   - No layer carries a version byte of its own: the checkpoint
//     payload's single version covers every layer's field list, and
//     changing any list means bumping it.
//   - Unsigned integers use uvarint; signed use zigzag varint; floats
//     are fixed 8-byte IEEE bit patterns (exact round trip, bit for
//     bit — the byte-identical-report invariant depends on it).
//   - Collections are written as a count followed by the elements;
//     keyed collections in strictly ascending key order, so identical
//     state always produces identical checkpoint bytes.
//   - Decoding is hostile-input safe: it never panics, never
//     over-allocates (counts are validated against the bytes actually
//     remaining, and slices and slabs grow a chunk at a time), and goes
//     sticky on the first error so a walk can run straight-line and the
//     caller checks Err() once at the end.
package statecodec

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/netip"
	"slices"
	"time"
)

// ErrCorrupt is wrapped by every decoding failure: truncated input,
// over-long counts, unordered keys, or malformed values.
var ErrCorrupt = errors.New("statecodec: corrupt or truncated state")

// Writer accumulates encoded state in memory, or streams it: a Writer
// made by NewWriter hands its bytes to a sink once it holds SpillSize of
// them, so a record of any size passes through a buffer of about that
// size. The zero value keeps everything in memory.
type Writer struct {
	buf  []byte
	sink io.Writer
	// crc is the CRC-32C of the summed span's bytes already handed to the
	// sink; sumFrom is where the span's buffered bytes begin.
	crc     uint32
	sumFrom int
	err     error // the sink's first failure
	// order is put's permutation scratch, kept across records.
	order []ranked
}

// SpillSize is how many bytes a streaming Writer buffers before it hands
// them to its sink, and the most any one sink Write carries.
const SpillSize = 64 << 10

// NewWriter returns a Writer that streams to sink.
func NewWriter(sink io.Writer) *Writer { return &Writer{sink: sink} }

// Bytes returns the encoded state not yet handed to a sink. The slice
// aliases the writer's buffer; it is valid until the next append.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes buffered.
func (w *Writer) Len() int { return len(w.buf) }

// Reset discards the buffered state and a sink's failure, keeping the
// buffer for reuse, so one Writer can encode a stream of records without
// reallocating.
func (w *Writer) Reset() { w.buf, w.crc, w.sumFrom, w.err = w.buf[:0], 0, 0, nil }

// Write appends p as it is, so a Writer can stand wherever an io.Writer
// is asked for; an encoder that recognizes one appends to it directly
// instead (see core's Checkpoint). It never fails: a sink's failure is
// Flush's to report.
func (w *Writer) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	w.spill()
	return len(p), nil
}

// StartSum starts the checksummed span at the next byte written.
func (w *Writer) StartSum() { w.crc, w.sumFrom = 0, len(w.buf) }

// Sum returns the CRC-32C (Castagnoli) of the span StartSum started,
// every byte written since, streamed or buffered.
func (w *Writer) Sum() uint32 { return crc32.Update(w.crc, castagnoli, w.buf[w.sumFrom:]) }

// castagnoli is the CRC-32C table.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// spill hands the buffer to the sink once it holds SpillSize bytes. The
// collection walks call it between elements, so a streaming Writer never
// buffers more than SpillSize plus one element.
func (w *Writer) spill() {
	if len(w.buf) >= SpillSize && w.sink != nil {
		w.flush()
	}
}

func (w *Writer) flush() {
	w.crc = crc32.Update(w.crc, castagnoli, w.buf[w.sumFrom:])
	for b := w.buf; len(b) > 0 && w.err == nil; {
		n := min(len(b), SpillSize)
		_, w.err = w.sink.Write(b[:n])
		b = b[n:]
	}
	w.buf, w.sumFrom = w.buf[:0], 0
}

// Flush hands whatever is buffered to the sink and returns the sink's
// first failure; after one, the rest of the record is dropped. A Writer
// without a sink keeps its bytes and returns nil.
func (w *Writer) Flush() error {
	if w.sink != nil {
		w.flush()
	}
	return w.err
}

// U8 appends one byte (enums, header bytes).
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// U16 appends an unsigned 16-bit value (RTP sequence numbers, ports).
func (w *Writer) U16(v uint16) { w.U64(uint64(v)) }

// U32 appends an unsigned 32-bit value (SSRCs, RTP timestamps).
func (w *Writer) U32(v uint32) { w.U64(uint64(v)) }

// U64 appends an unsigned value as uvarint.
func (w *Writer) U64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// I64 appends a signed value as zigzag varint.
func (w *Writer) I64(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Int appends a machine int (map sizes, caps).
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends a float as its fixed 8-byte IEEE 754 bit pattern.
func (w *Writer) F64(v float64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// Duration appends a time.Duration.
func (w *Writer) Duration(d time.Duration) { w.I64(int64(d)) }

// Time appends a wall-clock instant (see Codec.Time).
func (w *Writer) Time(t time.Time) {
	c := Codec{w: w}
	c.Time(&t)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Int(len(s))
	w.buf = append(w.buf, s...)
}

// Addr appends a netip.Addr (length byte + raw bytes; 0 for the invalid
// address).
func (w *Writer) Addr(a netip.Addr) {
	if !a.IsValid() {
		w.U8(0)
		return
	}
	b := a.AsSlice()
	w.U8(uint8(len(b)))
	w.buf = append(w.buf, b...)
}

// AddrPort appends a netip.AddrPort.
func (w *Writer) AddrPort(ap netip.AddrPort) {
	w.Addr(ap.Addr())
	w.U16(ap.Port())
}

// Codec is one direction-agnostic pass over a layer's fields: built over
// a Writer it encodes them, over a Reader it assigns them. Field methods
// take pointers so a layer names each field exactly once. A decoding
// pass goes sticky on its first error: every later field decodes as the
// zero value, so walks run straight-line and the owner checks Err once
// at the end.
type Codec struct {
	w    *Writer // non-nil: the pass encodes
	full bool

	// Decoding input, position and sticky error.
	b   []byte
	off int
	err error
}

// NewEncoder returns an encoding pass over w. A full pass selects every
// record of every collection, writes no tombstones and starts
// append-only tails at 0; a delta pass (full false) consults the
// layers' change logs.
func NewEncoder(w *Writer, full bool) *Codec { return &Codec{w: w, full: full} }

// NewDecoder returns the decoding pass over r's input: the two share
// position and error, so the owner can read a header through r, hand
// the walk the codec, and check r.Err and r.Remaining afterwards.
func NewDecoder(r *Reader) *Codec { return &r.c }

// Encoding reports the pass's direction. Walks consult it only where
// the directions genuinely differ: validating decoded values, resolving
// references, recomputing derived fields.
func (c *Codec) Encoding() bool { return c.w != nil }

// Full reports whether an encoding pass selects everything.
func (c *Codec) Full() bool { return c.full }

// Err returns the decoding pass's first error; encoding cannot fail.
func (c *Codec) Err() error { return c.err }

func (c *Codec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, c.off)
	}
}

// Failf marks a decoding pass corrupt with a formatted reason. Layers
// use it when a decoded value is in range for the codec but invalid for
// the layer (a non-positive clock rate, a dangling reference); a no-op
// when encoding.
func (c *Codec) Failf(format string, args ...any) {
	if c.w == nil && c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Every scalar walk tests the direction before it touches *v: a
// decoding pass writes into freshly allocated records, and reading the
// destination first would stall on memory the pass is about to overwrite.

// U8 walks one raw byte.
func (c *Codec) U8(v *uint8) {
	if c.w != nil {
		c.w.U8(*v)
		return
	}
	if c.err != nil || c.off >= len(c.b) {
		c.fail("u8")
		*v = 0
		return
	}
	*v = c.b[c.off]
	c.off++
}

// Bool walks a boolean. Any byte other than 0 or 1 is corruption.
func (c *Codec) Bool(v *bool) {
	if c.w != nil {
		c.w.Bool(*v)
		return
	}
	var b uint8
	if c.U8(&b); b > 1 {
		c.fail("bool")
	}
	*v = b == 1
}

// U64 walks an unsigned value as uvarint.
func (c *Codec) U64(v *uint64) {
	if c.w != nil {
		c.w.U64(*v)
		return
	}
	*v = 0
	if c.err != nil {
		return
	}
	x, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail("uvarint")
		return
	}
	c.off += n
	*v = x
}

// U32 walks an unsigned 32-bit value, rejecting overflow.
func (c *Codec) U32(v *uint32) {
	if c.w != nil {
		c.w.U32(*v)
		return
	}
	var x uint64
	if c.U64(&x); x > math.MaxUint32 {
		c.fail("u32 range")
		x = 0
	}
	*v = uint32(x)
}

// U16 walks an unsigned 16-bit value, rejecting overflow.
func (c *Codec) U16(v *uint16) {
	if c.w != nil {
		c.w.U16(*v)
		return
	}
	var x uint64
	if c.U64(&x); x > math.MaxUint16 {
		c.fail("u16 range")
		x = 0
	}
	*v = uint16(x)
}

// I64 walks a signed value as zigzag varint.
func (c *Codec) I64(v *int64) {
	if c.w != nil {
		c.w.I64(*v)
		return
	}
	*v = 0
	if c.err != nil {
		return
	}
	x, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail("varint")
		return
	}
	c.off += n
	*v = x
}

// Int walks a machine int.
func (c *Codec) Int(v *int) {
	if c.w != nil {
		c.w.Int(*v)
		return
	}
	var x int64
	if c.I64(&x); int64(int(x)) != x {
		c.fail("int range")
		x = 0
	}
	*v = int(x)
}

// Duration walks a time.Duration.
func (c *Codec) Duration(v *time.Duration) { c.I64((*int64)(v)) }

// F64 walks a float as its fixed 8-byte bit pattern.
func (c *Codec) F64(v *float64) {
	if c.w != nil {
		c.w.F64(*v)
		return
	}
	if c.err != nil || c.off+8 > len(c.b) {
		c.fail("f64")
		*v = 0
		return
	}
	*v = math.Float64frombits(binary.BigEndian.Uint64(c.b[c.off:]))
	c.off += 8
}

// Time walks a wall-clock instant as (second, nanosecond) behind an
// explicit zero flag, so the time.Time zero value round-trips as IsZero.
// Monotonic readings are dropped — capture timestamps never carry them —
// and an instant decodes in UTC, the zone both capture readers stamp, so
// a restored run prints the clock an uninterrupted one does whatever the
// host's zone.
func (c *Codec) Time(v *time.Time) {
	if w := c.w; w != nil {
		if v.IsZero() {
			w.buf = append(w.buf, 0)
			return
		}
		w.buf = append(w.buf, 1)
		w.buf = binary.AppendVarint(w.buf, v.Unix())
		w.buf = binary.AppendVarint(w.buf, int64(v.Nanosecond()))
		return
	}
	// The commonest field by far, so decoded in one frame rather than
	// through Bool and I64.
	*v = time.Time{}
	if c.err != nil || c.off >= len(c.b) || c.b[c.off] > 1 {
		c.fail("time flag")
		return
	}
	c.off++
	if c.b[c.off-1] == 0 {
		return
	}
	sec, n := binary.Varint(c.b[c.off:])
	nsec, m := binary.Varint(c.b[c.off+max(n, 0):])
	if n <= 0 || m <= 0 || nsec < 0 || nsec > 999_999_999 {
		c.fail("time")
		return
	}
	c.off += n + m
	*v = time.Unix(sec, nsec).UTC()
}

// count reads a collection length and validates it against the bytes
// remaining: each element costs at least minElemBytes, so a hostile
// count cannot trigger a huge allocation.
func (c *Codec) count(minElemBytes int) int {
	if c.err != nil {
		return 0
	}
	n, w := binary.Varint(c.b[c.off:])
	left := len(c.b) - c.off - w
	if minElemBytes > 1 {
		left /= minElemBytes
	}
	if w <= 0 || n < 0 || n > int64(left) {
		c.fail("count")
		return 0
	}
	c.off += w
	return int(n)
}

// String walks a length-prefixed string.
func (c *Codec) String(v *string) {
	if c.w != nil {
		c.w.String(*v)
		return
	}
	n := c.count(1)
	*v = string(c.b[c.off : c.off+n])
	c.off += n
}

// Addr walks a netip.Addr.
func (c *Codec) Addr(v *netip.Addr) {
	if c.w != nil {
		c.w.Addr(*v)
		return
	}
	*v = netip.Addr{}
	var n uint8
	if c.U8(&n); n == 0 {
		return
	}
	if (n != 4 && n != 16) || c.off+int(n) > len(c.b) {
		c.fail("addr length")
		return
	}
	*v, _ = netip.AddrFromSlice(c.b[c.off : c.off+int(n)])
	c.off += int(n)
}

// AddrPort walks a netip.AddrPort.
func (c *Codec) AddrPort(v *netip.AddrPort) {
	if c.w != nil {
		c.w.AddrPort(*v)
		return
	}
	var a netip.Addr
	var p uint16
	c.Addr(&a)
	c.U16(&p)
	*v = netip.AddrPortFrom(a, p)
}

// Reader decodes state encoded by Writer for callers that read a value
// at a time (file headers, the ZLOB observation log) rather than walk a
// layer: a thin facade over a decoding Codec, with its sticky-error and
// zero-value-after-error behavior, offering the value types those
// callers read.
type Reader struct{ c Codec }

// NewReader returns a reader over b. The reader never mutates b.
func NewReader(b []byte) *Reader { return &Reader{c: Codec{b: b}} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.c.err }

// Remaining reports how many bytes are left undecoded.
func (r *Reader) Remaining() int { return len(r.c.b) - r.c.off }

// The value reads mirror the Codec walks of the same name.
func (r *Reader) U8() (v uint8)   { r.c.U8(&v); return }
func (r *Reader) U64() (v uint64) { r.c.U64(&v); return }
func (r *Reader) Int() (v int)    { r.c.Int(&v); return }

// Ptr walks the presence flag of an optional component and reports
// whether it is present; a decoding pass replaces *p with mk() or nil.
// The caller walks the component's fields when Ptr returns true.
func Ptr[T any](c *Codec, p **T, mk func() *T) bool {
	if c.w != nil {
		c.w.Bool(*p != nil)
		return *p != nil
	}
	var has bool
	if c.Bool(&has); has {
		*p = mk()
	} else {
		*p = nil
	}
	return has
}

// Slice walks s[from:]: an encoding pass writes those elements, a
// decoding pass replaces them with the record's. Whole slices pass 0;
// an append-only slice passes the baseline its owner walked just before
// (its length at the last checkpoint, 0 on a full pass), so a delta
// carries only the tail. The decoded slice grows a chunk at a time, so
// the declared count needs no per-element size claim to be safe: a
// hostile one runs out of input long before it runs out of memory.
func Slice[T any](c *Codec, s *[]T, from int, elem func(*T)) {
	if c.w != nil {
		c.w.Int(len(*s) - from)
		for i := from; i < len(*s); i++ {
			elem(&(*s)[i])
			c.w.spill()
		}
		return
	}
	n := c.count(1)
	if from < 0 || from > len(*s) {
		c.Failf("slice baseline %d outside [0, %d]", from, len(*s))
		return
	}
	*s = (*s)[:from]
	for n > 0 && c.err == nil {
		chunk := min(n, slabChunk)
		lo := len(*s)
		if cap(*s)-lo < chunk {
			grown := make([]T, lo+chunk)
			copy(grown, *s)
			*s = grown
		} else {
			*s = (*s)[:lo+chunk]
			clear((*s)[lo:])
		}
		for i := lo; i < len(*s) && c.err == nil; i++ {
			elem(&(*s)[i])
		}
		n -= chunk
	}
}

// Key describes a key type of the keyed collections: its smallest
// encoding (the hostile-count guard's per-element floor, declared once
// per type), the order records are written in, and its field walk. Code
// takes and returns the key by value — an encoding pass writes k and
// returns it, a decoding pass ignores k and returns the key read — so
// keys never escape to the heap.
//
// Prefix, when set, packs the leading part of Compare's order into a
// word, so an encoding pass sorts words and compares whole keys only
// where two words tie. It must be monotone: Compare(a, b) < 0 implies
// Prefix(a) <= Prefix(b). The order, and so every byte written, is
// Compare's either way.
type Key[K any] struct {
	Min     int
	Compare func(a, b K) int
	Prefix  func(k K) uint64
	Code    func(c *Codec, k K) K
}

// UintKey returns the Key of an unsigned integer type, written as a
// uvarint and range-checked on decode. Its prefix is the value itself,
// so sorting never falls back to Compare.
func UintKey[K ~uint8 | ~uint16 | ~uint32 | ~uint64]() *Key[K] {
	return &Key[K]{Min: 1, Compare: cmp.Compare[K], Prefix: func(k K) uint64 { return uint64(k) }, Code: func(c *Codec, k K) K {
		v := uint64(k)
		c.U64(&v)
		if uint64(K(v)) != v {
			c.Failf("key %d out of range", v)
		}
		return K(v)
	}}
}

// AddrPortKey orders endpoints by (address, port).
var AddrPortKey = &Key[netip.AddrPort]{Min: 2, Compare: netip.AddrPort.Compare,
	Code: func(c *Codec, k netip.AddrPort) netip.AddrPort { c.AddrPort(&k); return k }}

// smallMap is how many selected records an encoding pass holds on the
// stack. A checkpoint walks tens of thousands of streams, each with a
// handful of tiny maps (substreams, recent sequence numbers): heap
// scratch per map showed up as GC pressure that dominated encode time.
const smallMap = 64

// Entry is one selected record of an encoding pass, collected with its
// value while the collection is iterated — in memory order — so the sorted
// walk needs no lookup per key, which on a large map is a cache miss each.
type Entry[K, V any] struct {
	K K
	V V
}

// ranked is one entry of put's permutation: the key's prefix (0 for a
// key type without one) and the entry's index.
type ranked struct {
	prefix uint64
	i      int
}

// put writes the selected entries in key order — their count, then each
// key followed by elem: the encoding half of every keyed helper. It
// sorts a permutation rather than the entries, by prefix, so a swap moves
// two words and only entries whose prefixes tie copy their keys into
// Compare. More than smallMap entries — the collections that hold every
// flow or stream — sort by radix in the Writer's scratch, fewer by
// comparison on the stack.
func put[K, V any](c *Codec, key *Key[K], sel []Entry[K, V], elem func(k K, v V)) {
	var scratch [smallMap]ranked
	order := scratch[:0]
	// held is the Writer's scratch while this put runs, so a nested put
	// finds none and makes its own; the second half is the radix sort's.
	var held []ranked
	if len(sel) > len(scratch) {
		held, c.w.order = c.w.order, nil
		if cap(held) < 2*len(sel) {
			held = make([]ranked, 0, 2*len(sel))
		}
		order = held[:0]
	}
	for i := range sel {
		var p uint64
		if key.Prefix != nil {
			p = key.Prefix(sel[i].K)
		}
		order = append(order, ranked{p, i})
	}
	if n := len(order); n > smallMap {
		order = radixSort(order, held[n:2*n])
	} else {
		slices.SortFunc(order, func(a, b ranked) int { return cmp.Compare(a.prefix, b.prefix) })
	}
	for lo, hi := 0, 0; lo < len(order); lo = hi {
		for hi = lo + 1; hi < len(order) && order[hi].prefix == order[lo].prefix; hi++ {
		}
		if hi-lo > 1 {
			slices.SortFunc(order[lo:hi], func(a, b ranked) int { return key.Compare(sel[a.i].K, sel[b.i].K) })
		}
	}
	c.w.Int(len(sel))
	for _, r := range order {
		key.Code(c, sel[r.i].K)
		if elem != nil {
			elem(sel[r.i].K, sel[r.i].V)
		}
		c.w.spill()
	}
	if cap(held) > cap(c.w.order) {
		c.w.order = held[:0]
	}
}

// radixSort sorts order by prefix a byte at a time, lowest first,
// skipping a byte every prefix shares; tmp is scratch of order's length.
// It returns whichever of the two holds the result.
func radixSort(order, tmp []ranked) []ranked {
	for shift := 0; shift < 64; shift += 8 {
		var at [256]int
		for _, r := range order {
			at[byte(r.prefix>>shift)]++
		}
		if at[byte(order[0].prefix>>shift)] == len(order) {
			continue
		}
		pos := 0
		for d, n := range at {
			at[d], pos = pos, pos+n
		}
		for _, r := range order {
			d := byte(r.prefix >> shift)
			tmp[at[d]] = r
			at[d]++
		}
		order, tmp = tmp, order
	}
	return order
}

// get is the decoding half: it reads the guarded count and hands each
// key to elem, requiring every key to be strictly greater than the one
// before — which rejects duplicate and unsorted records for every keyed
// collection in one place. open, if non-nil, sees the count first.
func get[K any](c *Codec, key *Key[K], open func(n int), elem func(k K, left int)) {
	n := c.count(key.Min)
	if open != nil {
		open(n)
	}
	var prev K
	for i := 0; i < n; i++ {
		k := key.Code(c, prev)
		if c.err == nil && i > 0 && key.Compare(prev, k) >= 0 {
			c.fail("keys not strictly ascending")
		}
		if c.err != nil {
			return
		}
		elem(k, n-i)
		prev = k
	}
}

// Keys walks a bare key sequence: sel names the keys an encoding pass
// writes (ignored when decoding) and elem receives each key in order,
// in both directions. The map helpers below cover keyed records; Keys
// is for key-only collections the caller stores itself.
func Keys[K any](c *Codec, key *Key[K], sel []K, elem func(k K)) {
	if c.w == nil {
		get(c, key, nil, func(k K, _ int) { elem(k) })
		return
	}
	var scratch [smallMap]Entry[K, struct{}]
	ents := scratch[:0]
	for _, k := range sel {
		ents = append(ents, Entry[K, struct{}]{K: k})
	}
	put(c, key, ents, func(k K, _ struct{}) { elem(k) })
}

// Records walks the keyed records of a collection the caller stores
// itself — one nested under another record, say, where Map would need a
// compound key per lookup. An encoding pass writes sel in key order and
// hands elem each key with its record; a decoding pass hands elem each key
// read, ascending, with the zero V and how many records are left, this one
// included, for elem to find or create the record and fill it.
func Records[K, V any](c *Codec, key *Key[K], sel []Entry[K, V], elem func(k K, v V, left int)) {
	if c.w != nil {
		put(c, key, sel, func(k K, v V) { elem(k, v, 0) })
		return
	}
	get(c, key, nil, func(k K, left int) {
		var v V
		elem(k, v, left)
	})
}

// Tombstones walks the keys log says were deleted since the last
// checkpoint: a delta pass writes them, a full pass writes none, a
// decoding pass hands each key to del. An encoding pass never calls del:
// a key evicted and recreated since the last checkpoint is live in the
// layer that is writing.
func Tombstones[K, V any](c *Codec, key *Key[K], log *ChangeLog[K, V], del func(K)) {
	var dead []K
	if c.w != nil {
		if !c.full && log != nil {
			// Keys sorts a permutation, so the log stays as it is should
			// the write after this encode fail.
			dead = log.dead
		}
		del = func(K) {}
	}
	Keys(c, key, dead, del)
}

// slabChunk bounds one slab allocation of a decoding Map: one
// allocation per few thousand records instead of one each (restore-side
// GC pressure was the difference between meeting the recovery-path time
// budget and missing it), yet never sized by a declared count alone, so
// a hostile count cannot force a huge allocation before the first
// record fails to decode.
const slabChunk = 4096

// Slab hands a decoding pass its new records out of chunked allocations.
// The zero Slab is ready.
type Slab[V any] struct{ free []V }

// New returns a zero record; left is how many the pass may still need,
// this one included.
func (s *Slab[V]) New(left int) *V {
	if len(s.free) == 0 {
		s.free = make([]V, max(1, min(left, slabChunk)))
	}
	v := &s.free[0]
	s.free = s.free[1:]
	return v
}

// Mark is a record's entry in the ChangeLog of the collection that holds
// it: where the record sits on the change list, 0 when it is not listed,
// and the log's epoch when the record was born. Each record carries its
// own; the zero Mark is a record the last checkpoint holds and nothing
// has touched since, which is what a decoding pass builds.
type Mark struct {
	at   int32
	born uint32
}

// ChangeLog decides, for one keyed collection, which records a delta
// carries and which deletions it announces, under one rule:
//
//   - a record is listed once, on its first touch after a checkpoint;
//   - a record the collection drops leaves the list (swap-remove);
//   - a dropped record leaves a tombstone only if it was born before the
//     last checkpoint, so it is one the base holds.
//
// Both lists are therefore bounded by the collection: the change list by
// the live records, the tombstones by the base's, and no key is
// tombstoned twice between two checkpoints. The log arms at its first
// MarkCheckpointed, so a run that never checkpoints lists nothing and
// pays a compare per touch. The zero ChangeLog is ready.
type ChangeLog[K, V any] struct {
	armed bool
	// epoch counts checkpoints: a record born in an earlier epoch is in
	// the base.
	epoch   uint32
	changed []Entry[K, *V]
	marks   []*Mark // marks[i] is changed[i]'s
	dead    []K
}

// NewMark returns the mark of a record the collection creates now.
func (l *ChangeLog[K, V]) NewMark() Mark { return Mark{born: l.epoch} }

// Touch lists v under *k unless it is already listed or the log is not
// armed, and reports whether it listed it. Call it before the mutation.
// The key is passed by reference because the packet path touches a record
// per packet and lists it once per checkpoint: it is copied only then.
func (l *ChangeLog[K, V]) Touch(m *Mark, k *K, v *V) bool {
	if !l.armed || m.at != 0 {
		return false
	}
	l.changed = append(l.changed, Entry[K, *V]{*k, v})
	l.marks = append(l.marks, m)
	m.at = int32(len(l.changed))
	return true
}

// Drop records that the collection no longer holds the record marked m
// under k.
func (l *ChangeLog[K, V]) Drop(m *Mark, k K) {
	if i := int(m.at) - 1; i >= 0 {
		// The last entry takes the place, so the list holds live records
		// only and keeps no dropped one in memory.
		last := len(l.changed) - 1
		l.changed[i], l.marks[i] = l.changed[last], l.marks[last]
		l.marks[i].at = m.at
		l.changed[last], l.marks[last] = Entry[K, *V]{}, nil
		l.changed, l.marks = l.changed[:last], l.marks[:last]
		m.at = 0
	}
	if l.armed && m.born < l.epoch {
		l.dead = append(l.dead, k)
	}
}

// Changed returns the records listed since the last checkpoint, in no
// particular order. The slice is the log's own.
func (l *ChangeLog[K, V]) Changed() []Entry[K, *V] { return l.changed }

// Backlog reports how many records are listed and how many tombstones
// wait for the next delta.
func (l *ChangeLog[K, V]) Backlog() (changed, dead int) { return len(l.changed), len(l.dead) }

// MarkCheckpointed re-anchors the log after a checkpoint encode or
// decode: every record is now in the base, so the lists empty, the epoch
// moves on and the log is armed.
func (l *ChangeLog[K, V]) MarkCheckpointed() {
	for _, m := range l.marks {
		m.at = 0
	}
	// Cleared, not just cut: the spare capacity would otherwise hold
	// records the collection drops later.
	clear(l.changed)
	clear(l.marks)
	l.changed, l.marks, l.dead = l.changed[:0], l.marks[:0], l.dead[:0]
	l.epoch++
	l.armed = true
}

// Map walks a map of record pointers. A full encoding pass writes every
// record. A delta pass writes the records log lists, so its cost follows
// what changed, not what the map holds; a nil log is a collection carried
// whole in every record. A decoding pass upserts: a
// key already present keeps its record pointer — other structures may
// reference it — reset to the zero value, or by reset where the record
// holds something no record of this walk carries (a flow's stream index,
// a stream's logs), and a new key gets a zero record from a chunked slab.
// Either way elem then walks the record's fields. Decoding never leaves *m
// nil.
func Map[K comparable, V any](c *Codec, key *Key[K], m *map[K]*V, reset func(*V), log *ChangeLog[K, V], elem func(k K, v *V)) {
	if c.w != nil {
		if !c.full && log != nil {
			put(c, key, log.changed, elem)
			return
		}
		var scratch [smallMap]Entry[K, *V]
		sel := scratch[:0]
		if len(*m) > len(scratch) {
			sel = make([]Entry[K, *V], 0, len(*m))
		}
		for k, v := range *m {
			sel = append(sel, Entry[K, *V]{k, v})
		}
		put(c, key, sel, elem)
		return
	}
	// Ascending keys cannot repeat, so a map that starts out empty (a
	// full record onto a fresh layer) never needs the lookup.
	fresh := len(*m) == 0
	var slab Slab[V]
	get(c, key, func(n int) {
		if fresh {
			*m = make(map[K]*V, n)
		}
	}, func(k K, left int) {
		var v *V
		if !fresh {
			v = (*m)[k]
		}
		switch {
		case v == nil:
			v = slab.New(left)
			(*m)[k] = v
		case reset != nil:
			reset(v)
		default:
			var zero V
			*v = zero
		}
		elem(k, v)
	})
}

// MapVal walks a map of plain values that is always carried whole: an
// encoding pass writes every entry, a decoding pass replaces the map's
// contents (never leaving it nil). elem walks one value, by value for
// the same reason Key.Code does; nil for a set.
func MapVal[K comparable, V any](c *Codec, key *Key[K], m *map[K]V, elem func(k K, v V) V) {
	if c.w != nil {
		var scratch [smallMap]Entry[K, V]
		sel := scratch[:0]
		if len(*m) > len(scratch) {
			sel = make([]Entry[K, V], 0, len(*m))
		}
		for k, v := range *m {
			sel = append(sel, Entry[K, V]{k, v})
		}
		if elem == nil {
			put(c, key, sel, nil)
		} else {
			put(c, key, sel, func(k K, v V) { elem(k, v) })
		}
		return
	}
	get(c, key, func(n int) {
		if clear(*m); n > 0 || *m == nil {
			*m = make(map[K]V, n)
		}
	}, func(k K, _ int) {
		var v V
		if elem != nil {
			v = elem(k, v)
		}
		(*m)[k] = v
	})
}
