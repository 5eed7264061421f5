package statecodec

import "slices"

// logShift sets how many elements a sealed chunk of a Log holds:
// 1<<logShift.
const (
	logShift = 8
	logChunk = 1 << logShift
	logMask  = logChunk - 1
)

// Log is an append-only sequence that grows without copying itself. Its
// first chunk grows by append, exactly as a slice does, up to logChunk
// elements; a full chunk is sealed and never moves again, and the next
// element begins a new chunk of logChunk. A long log therefore makes no
// copies of itself for the collector to sweep and holds at most one
// part-filled chunk of slack, and one that never fills its first chunk
// costs what its slice would plus an empty slice header. The zero Log is
// empty.
//
// Pointers At returns stay valid as the log grows, except into the
// current chunk, which append may still move.
type Log[T any] struct {
	sealed [][]T // each exactly logChunk elements
	cur    []T   // at most logChunk elements
}

// Len returns how many elements the log holds.
func (l Log[T]) Len() int { return len(l.sealed)<<logShift + len(l.cur) }

// At returns element i, which must be below Len. The element is the
// log's own: read it, do not keep or change it.
func (l Log[T]) At(i int) *T {
	if c := i >> logShift; c < len(l.sealed) {
		return &l.sealed[c][i&logMask]
	}
	return &l.cur[i-len(l.sealed)<<logShift]
}

// Append adds v at the end.
func (l *Log[T]) Append(v T) {
	if len(l.cur) == cap(l.cur) {
		l.grow(1)
	}
	l.cur = append(l.cur, v)
}

// grow makes room in the current chunk for at least one more element.
// A full chunk is sealed and the next one made whole at once: a log that
// fills one chunk is long, and growing every chunk by append would copy
// each element again. A first chunk grows as append would grow a slice
// (want 1), or by what a decoding pass, which knows how many elements
// follow, asks for; either way never past logChunk.
func (l *Log[T]) grow(want int) {
	n := len(l.cur)
	switch {
	case n == logChunk:
		l.sealed = append(l.sealed, l.cur)
		l.cur = make([]T, 0, logChunk)
	case want == 1 && 2*n <= logChunk:
		l.cur = slices.Grow(l.cur, 1)
		l.cur = l.cur[:n:min(cap(l.cur), logChunk)]
	default:
		grown := make([]T, n, min(n+max(want, n), logChunk))
		copy(grown, l.cur)
		l.cur = grown
	}
}

// truncate cuts the log to its first n elements, n at most Len, and
// clears what it cuts off in the chunk it keeps, so nothing the log no
// longer holds stays reachable through it.
func (l *Log[T]) truncate(n int) {
	keep := n >> logShift
	if n&logMask == 0 && keep > 0 {
		keep-- // the last whole chunk stays the current one, full
	}
	if keep < len(l.sealed) {
		l.cur = l.sealed[keep]
		clear(l.sealed[keep:])
		l.sealed = l.sealed[:keep]
	}
	tail := n - keep<<logShift
	clear(l.cur[tail:])
	l.cur = l.cur[:tail]
}

// LogTail is Slice for a Log: it walks the elements from index from on and
// writes the bytes Slice writes for the same elements. A decoding pass
// cuts the log to from and appends the record's, growing a chunk at a
// time, so a hostile count runs out of input before it allocates more
// than a chunk past what the input backs.
func LogTail[T any](c *Codec, l *Log[T], from int, elem func(*T)) {
	if c.w != nil {
		n := l.Len()
		c.w.Int(n - from)
		for i := from; i < n; i++ {
			elem(l.At(i))
			c.w.spill()
		}
		return
	}
	n := c.count(1)
	if from < 0 || from > l.Len() {
		c.Failf("slice baseline %d outside [0, %d]", from, l.Len())
		return
	}
	l.truncate(from)
	for n > 0 && c.err == nil {
		if len(l.cur) == cap(l.cur) {
			l.grow(n)
		}
		lo := len(l.cur)
		hi := min(lo+n, cap(l.cur))
		l.cur = l.cur[:hi]
		clear(l.cur[lo:])
		for i := lo; i < hi; i++ {
			if elem(&l.cur[i]); c.err != nil {
				l.cur = l.cur[:i] // keep only what decoded
				return
			}
		}
		n -= hi - lo
	}
}
