package statecodec

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// logElem is a Log element with a two-field walk, 16 bytes in memory and
// at least 9 on the wire.
type logElem struct {
	N int64
	V float64
}

// walkElem returns the element walk of c.
func walkElem(c *Codec) func(*logElem) {
	return func(e *logElem) {
		c.I64(&e.N)
		c.F64(&e.V)
	}
}

func nthElem(i int) logElem { return logElem{N: int64(i), V: float64(i) / 4} }

func logOf(n int) *Log[logElem] {
	l := new(Log[logElem])
	for i := range n {
		l.Append(nthElem(i))
	}
	return l
}

// checkLog fails unless l holds exactly the first n elements nthElem makes.
func checkLog(t *testing.T, what string, l *Log[logElem], n int) {
	t.Helper()
	if l.Len() != n {
		t.Fatalf("%s: Len = %d, want %d", what, l.Len(), n)
	}
	for i := range n {
		if got := *l.At(i); got != nthElem(i) {
			t.Fatalf("%s: At(%d) = %+v, want %+v", what, i, got, nthElem(i))
		}
	}
}

func TestLogLenAndAt(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 513} {
		l := logOf(n)
		checkLog(t, "appended", l, n)
		if len(l.cur) > logChunk || cap(l.cur) > logChunk {
			t.Fatalf("n=%d: current chunk of %d elements, capacity %d", n, len(l.cur), cap(l.cur))
		}
		for i, ch := range l.sealed {
			if len(ch) != logChunk {
				t.Fatalf("n=%d: sealed chunk %d holds %d elements", n, i, len(ch))
			}
		}
	}
}

// A short log grows exactly as a slice appended to would: same capacity
// at every length, so it costs what its slice did.
func TestLogShortGrowsLikeASlice(t *testing.T) {
	var l Log[logElem]
	var s []logElem
	for i := range logChunk {
		l.Append(nthElem(i))
		s = append(s, nthElem(i))
		if want := min(cap(s), logChunk); cap(l.cur) != want || l.sealed != nil {
			t.Fatalf("at %d elements: chunk capacity %d, sealed %d; a slice has capacity %d", i+1, cap(l.cur), len(l.sealed), cap(s))
		}
	}
}

// Once the first chunk is sealed, appending never moves an element of it:
// nothing is copied.
func TestLogSealedChunksDoNotMove(t *testing.T) {
	l := logOf(logChunk + 1)
	first, last := l.At(0), l.At(logChunk-1)
	for i := logChunk + 1; i < 5*logChunk; i++ {
		l.Append(nthElem(i))
		if l.At(0) != first || l.At(logChunk-1) != last {
			t.Fatalf("after %d appends the first chunk moved", i+1)
		}
	}
	checkLog(t, "grown", l, 5*logChunk)
}

func encodeTail(full bool, walk func(c *Codec)) []byte {
	var w Writer
	walk(NewEncoder(&w, full))
	return bytes.Clone(w.Bytes())
}

func TestLogTailRoundTrip(t *testing.T) {
	const n = 2*logChunk + 90
	l := logOf(n)
	slice := make([]logElem, n)
	for i := range slice {
		slice[i] = nthElem(i)
	}
	for from := 0; from <= 2*logChunk+1; from++ {
		full := from == 0
		got := encodeTail(full, func(c *Codec) { LogTail(c, l, from, walkElem(c)) })
		want := encodeTail(full, func(c *Codec) { Slice(c, &slice, from, walkElem(c)) })
		if !bytes.Equal(got, want) {
			t.Fatalf("from %d: LogTail wrote %d bytes Slice does not write", from, len(got))
		}
		// Onto the log as it stood at the baseline, as a delta applies.
		replica := logOf(from)
		c := NewDecoder(NewReader(got))
		if LogTail(c, replica, from, walkElem(c)); c.Err() != nil {
			t.Fatalf("from %d: %v", from, c.Err())
		}
		checkLog(t, "decoded", replica, n)
	}
	// A full record onto a longer log replaces it.
	rec := encodeTail(true, func(c *Codec) { LogTail(c, logOf(300), 0, walkElem(c)) })
	long := logOf(700)
	c := NewDecoder(NewReader(rec))
	if LogTail(c, long, 0, walkElem(c)); c.Err() != nil {
		t.Fatal(c.Err())
	}
	checkLog(t, "full onto a longer log", long, 300)
}

// A decode cuts the log to its baseline first and keeps nothing of what
// it cut, not even in the spare capacity of the chunk it keeps.
func TestLogTailTruncateLeavesNothingStale(t *testing.T) {
	for _, from := range []int{0, 5, logChunk - 1, logChunk, logChunk + 1, 2 * logChunk} {
		var extra Log[logElem]
		for i := range 3 {
			extra.Append(logElem{N: -1 - int64(i), V: -1})
		}
		rec := encodeTail(true, func(c *Codec) { LogTail(c, &extra, 0, walkElem(c)) })
		l := logOf(3*logChunk + 7)
		c := NewDecoder(NewReader(rec))
		if LogTail(c, l, from, walkElem(c)); c.Err() != nil {
			t.Fatal(c.Err())
		}
		if l.Len() != from+3 {
			t.Fatalf("from %d: Len = %d, want %d", from, l.Len(), from+3)
		}
		for i := range from {
			if *l.At(i) != nthElem(i) {
				t.Fatalf("from %d: element %d changed", from, i)
			}
		}
		for i := range 3 {
			if got := *l.At(from + i); got != *extra.At(i) {
				t.Fatalf("from %d: element %d = %+v, want the record's %+v", from, from+i, got, *extra.At(i))
			}
		}
		for i, e := range l.cur[len(l.cur):cap(l.cur)] {
			if e != (logElem{}) {
				t.Fatalf("from %d: spare slot %d of the current chunk still holds %+v", from, i, e)
			}
		}
		if len(l.sealed) != (from+3-1)>>logShift {
			t.Fatalf("from %d: %d sealed chunks for %d elements", from, len(l.sealed), l.Len())
		}
	}
}

func TestLogTailRefusesBaselinePastLength(t *testing.T) {
	rec := encodeTail(true, func(c *Codec) { LogTail(c, logOf(2), 0, walkElem(c)) })
	for _, from := range []int{-1, 11, logChunk + 1} {
		l := logOf(10)
		c := NewDecoder(NewReader(rec))
		if LogTail(c, l, from, walkElem(c)); !errors.Is(c.Err(), ErrCorrupt) {
			t.Fatalf("baseline %d on a log of 10: err = %v, want ErrCorrupt", from, c.Err())
		}
		checkLog(t, "refused", l, 10)
	}
}

// A count the input cannot back is refused before anything is allocated,
// and one that passes the byte guard but not the elements' true size
// allocates no more than a chunk past the elements the input held.
func TestLogTailHostileCount(t *testing.T) {
	var w Writer
	w.Int(1 << 40)
	var l Log[logElem]
	c := NewDecoder(NewReader(w.Bytes()))
	if LogTail(c, &l, 0, walkElem(c)); !errors.Is(c.Err(), ErrCorrupt) || l.Len() != 0 || l.cur != nil {
		t.Fatalf("count 1<<40 on an empty record: err = %v, %d elements, chunk capacity %d", c.Err(), l.Len(), cap(l.cur))
	}

	const body = 1 << 20
	w.Reset()
	w.Int(body) // one element per byte, but each needs at least 9
	w.Write(make([]byte, body))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c = NewDecoder(NewReader(w.Bytes()))
	LogTail(c, &l, 0, walkElem(c))
	runtime.ReadMemStats(&after)
	if !errors.Is(c.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", c.Err())
	}
	held := body/9 + 1
	if l.Len() > held {
		t.Fatalf("decoded %d elements from %d bytes", l.Len(), body)
	}
	const size = 16 // unsafe.Sizeof(logElem{})
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*size*(held+logChunk)); got > limit {
		t.Fatalf("a count of %d allocated %d bytes; the input backs %d elements, %d bytes at most", body, got, held, limit)
	}
}
