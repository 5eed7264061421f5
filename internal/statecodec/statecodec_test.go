package statecodec

import (
	"errors"
	"net/netip"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(3)
	w.Bool(true)
	w.Bool(false)
	w.U16(65535)
	w.U32(0xdeadbeef)
	w.U64(1 << 62)
	w.I64(-42)
	w.Int(-7)
	w.F64(3.14159)
	e := NewEncoder(&w, true)
	d, at, zero := 5*time.Second, time.Unix(1700000000, 123456789), time.Time{}
	e.Duration(&d)
	e.Time(&at)
	e.Time(&zero)
	w.Addr(netip.MustParseAddr("10.1.2.3"))
	w.Addr(netip.MustParseAddr("fd00::1"))
	w.Addr(netip.Addr{})
	w.AddrPort(netip.MustParseAddrPort("192.168.0.1:8801"))

	r := NewReader(w.Bytes())
	c := NewDecoder(r)
	if got := r.U8(); got != 3 {
		t.Fatalf("u8 = %d", got)
	}
	var yes, no bool
	if c.Bool(&yes); !yes {
		t.Fatal("bool round trip")
	}
	if c.Bool(&no); no {
		t.Fatal("bool round trip")
	}
	var u16 uint16
	if c.U16(&u16); u16 != 65535 {
		t.Fatalf("u16 = %d", u16)
	}
	var u32 uint32
	if c.U32(&u32); u32 != 0xdeadbeef {
		t.Fatalf("u32 = %x", u32)
	}
	if got := r.U64(); got != 1<<62 {
		t.Fatalf("u64 = %d", got)
	}
	var i64 int64
	if c.I64(&i64); i64 != -42 {
		t.Fatalf("i64 = %d", i64)
	}
	if got := r.Int(); got != -7 {
		t.Fatalf("int = %d", got)
	}
	var f64 float64
	if c.F64(&f64); f64 != 3.14159 {
		t.Fatalf("f64 = %v", f64)
	}
	var dur time.Duration
	if c.Duration(&dur); dur != 5*time.Second {
		t.Fatalf("duration = %v", dur)
	}
	want := time.Unix(1700000000, 123456789)
	// Written from the host's zone, read back in UTC like a capture stamp.
	var got time.Time
	if c.Time(&got); !got.Equal(want) || got.Location() != time.UTC {
		t.Fatalf("time = %v", got)
	}
	if c.Time(&got); !got.IsZero() {
		t.Fatalf("zero time = %v", got)
	}
	var addr netip.Addr
	if c.Addr(&addr); addr != netip.MustParseAddr("10.1.2.3") {
		t.Fatalf("addr4 = %v", addr)
	}
	if c.Addr(&addr); addr != netip.MustParseAddr("fd00::1") {
		t.Fatalf("addr6 = %v", addr)
	}
	if c.Addr(&addr); addr.IsValid() {
		t.Fatalf("invalid addr = %v", addr)
	}
	var ap netip.AddrPort
	if c.AddrPort(&ap); ap != netip.MustParseAddrPort("192.168.0.1:8801") {
		t.Fatalf("addrport = %v", ap)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

// TestTruncation decodes every proper prefix of a valid encoding; every
// one must end with a sticky error, never a panic.
func TestTruncation(t *testing.T) {
	var w Writer
	w.U8(1)
	at := time.Unix(100, 5)
	NewEncoder(&w, true).Time(&at)
	w.F64(2.5)
	w.AddrPort(netip.MustParseAddrPort("10.0.0.1:443"))
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		c := NewDecoder(r)
		var (
			at  time.Time
			f64 float64
			ap  netip.AddrPort
		)
		r.U8()
		c.Time(&at)
		c.F64(&f64)
		c.AddrPort(&ap)
		if r.Err() == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
	}
}

// TestHostileCounts confirms that a huge declared count cannot trigger a
// matching allocation.
func TestHostileCounts(t *testing.T) {
	var w Writer
	w.Int(1 << 40) // claims a petabyte of elements
	r := NewReader(w.Bytes())
	if n := NewDecoder(r).count(1); n != 0 || r.Err() == nil {
		t.Fatalf("hostile count accepted: n=%d err=%v", n, r.Err())
	}
	var list []uint64
	r = NewReader(w.Bytes())
	c := NewDecoder(r)
	Slice(c, &list, 0, c.U64)
	if list != nil || r.Err() == nil {
		t.Fatalf("hostile slice length allocated %d elements (err %v)", len(list), r.Err())
	}
}

func TestDeterministicEncoding(t *testing.T) {
	enc := func() []byte {
		var w Writer
		at := time.Unix(42, 7)
		NewEncoder(&w, true).Time(&at)
		w.F64(1.25)
		w.U64(99)
		return append([]byte(nil), w.Bytes()...)
	}
	a, b := enc(), enc()
	if string(a) != string(b) {
		t.Fatal("identical state encoded to different bytes")
	}
}

// layer is a miniature stateful layer exercising every helper: scalars,
// an optional component, a pointer map with a change log, a
// whole by-value map, a key-only sequence and an append-only tail.
type layer struct {
	n      uint64
	at     time.Time
	opt    *item
	recs   map[uint32]*item
	log    ChangeLog[uint32, item]
	counts map[uint8]uint64
	seqs   []uint16
	tail   []int64
	base   int
}

type item struct {
	v    int64
	mark Mark
}

var (
	u8k  = UintKey[uint8]()
	u16k = UintKey[uint16]()
	u32k = UintKey[uint32]()
)

func (l *layer) code(c *Codec) {
	c.U64(&l.n)
	c.Time(&l.at)
	if Ptr(c, &l.opt, func() *item { return new(item) }) {
		c.I64(&l.opt.v)
	}
	Tombstones(c, u32k, &l.log, func(k uint32) { delete(l.recs, k) })
	Map(c, u32k, &l.recs, nil, &l.log, func(_ uint32, it *item) { c.I64(&it.v) })
	MapVal(c, u8k, &l.counts, func(_ uint8, n uint64) uint64 { c.U64(&n); return n })
	Keys(c, u16k, append([]uint16(nil), l.seqs...), func(s uint16) {
		if !c.Encoding() {
			l.seqs = append(l.seqs, s)
		}
	})
	base := l.base
	if c.Full() {
		base = 0
	}
	c.Int(&base)
	Slice(c, &l.tail, base, c.I64)
}

func (l *layer) record(full bool) []byte {
	var w Writer
	l.code(NewEncoder(&w, full))
	return append([]byte(nil), w.Bytes()...)
}

func (l *layer) apply(t *testing.T, rec []byte) {
	t.Helper()
	r := NewReader(rec)
	if l.code(NewDecoder(r)); r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("apply: err %v, %d bytes left", r.Err(), r.Remaining())
	}
}

func (l *layer) mark() {
	l.log.MarkCheckpointed()
	l.base = len(l.tail)
}

// put sets record k to v, creating it if the layer holds none, the way a
// packet path touches a record.
func (l *layer) put(k uint32, v int64) {
	it := l.recs[k]
	if it == nil {
		it = &item{mark: l.log.NewMark()}
		l.recs[k] = it
	}
	l.log.Touch(&it.mark, &k, it)
	it.v = v
}

// del drops record k, the way eviction does.
func (l *layer) del(k uint32) {
	l.log.Drop(&l.recs[k].mark, k)
	delete(l.recs, k)
}

// TestCodecFullIsDeltaWithEverythingDirty drives the miniature layer the
// way the engine drives the real ones: a full record onto a fresh layer
// re-encodes byte-identically, and full@t0 + delta(t0→t1) — with an
// upsert, a tombstone, a key dropped and created again, a record born and
// dropped (which leaves no tombstone) and a grown tail in the interval — re-encodes byte-identically to full@t1.
func TestCodecFullIsDeltaWithEverythingDirty(t *testing.T) {
	live := &layer{
		n: 7, at: time.Unix(1700000000, 5), opt: &item{v: -3},
		recs:   map[uint32]*item{5: {v: 50}, 1 << 20: {v: -1}, 9: {v: 90}, 700: {v: 1 << 20}, 701: {v: -7}},
		counts: map[uint8]uint64{200: 1, 3: 1 << 40},
		seqs:   []uint16{9, 3, 300},
		tail:   []int64{1, -2},
	}
	full0 := live.record(true)
	live.mark()

	replica := &layer{}
	replica.apply(t, full0)
	if got := replica.record(true); string(got) != string(full0) {
		t.Fatal("full → fresh layer → full is not byte-identical")
	}
	replica.seqs = nil
	replica.mark()

	live.n, live.opt = 8, nil
	live.del(5)
	live.put(9, 91)
	live.put(2, 20)
	live.put(1<<20, -2)
	live.del(1 << 20)
	live.put(1<<20, -3)
	live.put(6, 60)
	live.del(6)
	if changed, dead := live.log.Backlog(); changed != 3 || dead != 2 {
		t.Fatalf("backlog %d changed, %d tombstones; want 3 and 2 (5 and 1<<20: the born-and-dropped 6 leaves none)", changed, dead)
	}
	live.counts[4] = 4
	live.tail = append(live.tail, 3)
	delta := live.record(false)
	if len(delta) >= len(full0) {
		t.Errorf("delta (%d bytes) is no smaller than the full record (%d)", len(delta), len(full0))
	}

	replica.seqs = nil
	replica.apply(t, delta)
	if got, want := replica.record(true), live.record(true); string(got) != string(want) {
		t.Fatalf("full@t0 + delta != full@t1:\n got %x\nwant %x", got, want)
	}
}

// TestMapResetsHeldRecords: a decoding Map keeps the pointer of a record
// it already holds and clears it — to the zero value, or through the
// reset hook, which decides what outlives the record's fields.
func TestMapResetsHeldRecords(t *testing.T) {
	src := map[uint32]*item{1: {v: 10}, 2: {v: 20}}
	var w Writer
	walk := func(c *Codec, m *map[uint32]*item, reset func(*item)) {
		Map(c, u32k, m, reset, nil, func(_ uint32, it *item) { c.I64(&it.v) })
	}
	walk(NewEncoder(&w, true), &src, nil)
	for _, keep := range []bool{false, true} {
		held := &item{v: -1, mark: Mark{at: 3}}
		dst := map[uint32]*item{1: held}
		var reset func(*item)
		if keep {
			reset = func(it *item) { it.v = 0 }
		}
		r := NewReader(w.Bytes())
		if walk(NewDecoder(r), &dst, reset); r.Err() != nil {
			t.Fatal(r.Err())
		}
		if dst[1] != held || held.v != 10 || (held.mark == Mark{at: 3}) != keep || dst[2] == nil || *dst[2] != (item{v: 20}) {
			t.Errorf("reset hook %v: held %+v (same pointer %v), new %+v", keep, *held, dst[1] == held, dst[2])
		}
	}
}

// TestCodecRejectsUnorderedKeys hand-builds, for every keyed helper, a
// record whose keys repeat or descend: each must fail with ErrCorrupt.
func TestCodecRejectsUnorderedKeys(t *testing.T) {
	for _, order := range [][2]uint64{{7, 7}, {9, 3}} {
		var w Writer
		w.Int(2)
		w.U64(order[0])
		w.U64(order[1])
		for name, walk := range map[string]func(c *Codec){
			"Keys":       func(c *Codec) { Keys(c, u32k, nil, func(uint32) {}) },
			"Tombstones": func(c *Codec) { Tombstones(c, u32k, (*ChangeLog[uint32, item])(nil), func(uint32) {}) },
			"Map":        func(c *Codec) { Map(c, u32k, new(map[uint32]*item), nil, nil, func(uint32, *item) {}) },
			"MapVal":     func(c *Codec) { MapVal(c, u32k, new(map[uint32]struct{}), nil) },
		} {
			r := NewReader(w.Bytes())
			if walk(NewDecoder(r)); !errors.Is(r.Err(), ErrCorrupt) {
				t.Errorf("%s accepted keys %v (err %v)", name, order, r.Err())
			}
		}
	}
}

// TestCodecMinimumElementsAtEndOfInput pins the hostile-count guard to
// the smallest legal element: a collection of minimum-size elements
// that ends exactly at end-of-input must decode. (An overstated
// per-element minimum rejects it — the latent bug the hand-computed
// Count claims carried.)
func TestCodecMinimumElementsAtEndOfInput(t *testing.T) {
	type obs struct {
		at time.Time
		ts uint32
	}
	zeros := make([]obs, 100) // zero Time + small U32: 2 bytes each
	ports := map[netip.AddrPort]*item{}
	for p := uint16(0); p < 100; p++ {
		ports[netip.AddrPortFrom(netip.Addr{}, p)] = &item{} // invalid addr + small port + value: 3 bytes each
	}
	walk := func(c *Codec, s *[]obs, m *map[netip.AddrPort]*item) {
		Slice(c, s, 0, func(o *obs) { c.Time(&o.at); c.U32(&o.ts) })
		Map(c, AddrPortKey, m, nil, nil, func(_ netip.AddrPort, it *item) { c.I64(&it.v) })
	}
	var w Writer
	walk(NewEncoder(&w, true), &zeros, &ports)
	if want := 2 + 100*2 + 2 + 100*3; w.Len() != want {
		t.Fatalf("fixture is %d bytes, want the %d-byte minimum", w.Len(), want)
	}
	var gotS []obs
	var gotM map[netip.AddrPort]*item
	r := NewReader(w.Bytes())
	if walk(NewDecoder(r), &gotS, &gotM); r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("minimum-size collections rejected: %v (%d bytes left)", r.Err(), r.Remaining())
	}
	if len(gotS) != len(zeros) || len(gotM) != len(ports) {
		t.Fatalf("decoded %d/%d elements, want %d/%d", len(gotS), len(gotM), len(zeros), len(ports))
	}
}

// TestCodecTruncation decodes every proper prefix of the miniature
// layer's full and delta records: each must fail, never panic.
func TestCodecTruncation(t *testing.T) {
	l := &layer{
		opt:    &item{v: 1},
		recs:   map[uint32]*item{1: {v: 1}, 2: {v: 2}, 3: {v: 3}},
		counts: map[uint8]uint64{1: 1},
		seqs:   []uint16{1, 2},
		tail:   []int64{1},
	}
	l.mark()
	l.put(1, 11)
	l.del(3)
	l.tail = append(l.tail, 2, 3)
	for _, full := range []bool{true, false} {
		rec := l.record(full)
		for cut := 0; cut < len(rec); cut++ {
			r := NewReader(rec[:cut])
			target := &layer{tail: []int64{1}}
			if target.code(NewDecoder(r)); r.Err() == nil {
				t.Fatalf("full=%v: prefix of %d/%d bytes decoded without error", full, cut, len(rec))
			}
		}
	}
}
