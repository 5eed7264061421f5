package pcap

import "io"

// windowSize is the size of a stream's read window. One underlying Read
// fetches up to this many bytes, so a capture of small frames costs one
// read(2) per thousand or so records instead of two per record. It is a
// constant, not a knob: windows of 32 to 256 KiB read a page-cache-warm
// file at the same speed (BenchmarkIngestPath/read/pcap-file), and
// 128 KiB is the smallest of them that lends even a maximum-size IP
// packet (64 KiB plus framing, as offloaded captures contain) in place.
// It is all the memory an open stream adds.
const windowSize = 128 << 10

// window is the one read buffer of a capture stream: the classic and the
// pcapng reader both slice their headers and record bodies out of it, so
// the bytes of a record are copied once (kernel to window) and lent to
// the caller in place.
//
// A refill is one Read into the free tail of the window, repeated only
// while the bytes the caller asked for have not arrived yet — never to
// top the window up. On a pipe or a growing file a record is therefore
// returned as soon as its own bytes are there. Errors are not sticky: a
// later call reads again, as a caller polling a live stream expects.
type window struct {
	r    io.Reader
	buf  []byte
	lo   int    // buf[lo:hi] is read but not yet consumed
	hi   int    //
	err  error  // what the last Read returned, not yet reported
	over []byte // grow-and-copy fallback lent for a request larger than the window
}

func newWindow(r io.Reader) *window {
	return &window{r: r, buf: make([]byte, windowSize)}
}

// peek returns the next n bytes of the stream (n ≤ windowSize) without
// consuming them. The slice is valid until the next call on the window.
// A stream that ends before the first byte yields io.EOF; one that ends
// after it but short of n, io.ErrUnexpectedEOF.
func (w *window) peek(n int) ([]byte, error) {
	if w.hi-w.lo < n {
		if err := w.fill(n); err != nil {
			return nil, err
		}
	}
	return w.buf[w.lo : w.lo+n], nil
}

// next returns the next n bytes of the stream and consumes them; the
// slice is valid until the next call on the window. End-of-stream
// reporting is peek's. A request larger than the window is served from a
// separate buffer that grows to the largest such request.
func (w *window) next(n int) ([]byte, error) {
	if n > len(w.buf) {
		return w.oversize(n)
	}
	b, err := w.peek(n)
	if err == nil {
		w.lo += n
	}
	return b, err
}

// fill moves the unconsumed bytes to the front of the window and reads
// until it holds at least n.
func (w *window) fill(n int) error {
	w.hi = copy(w.buf, w.buf[w.lo:w.hi])
	w.lo = 0
	for idle := 0; w.hi < n; {
		if err := w.err; err != nil {
			w.err = nil
			return short(err, w.hi)
		}
		// A Read may return data and an error together: park the error
		// (the data may be all that was asked for) and report it on the
		// next pass or the next refill.
		m, err := w.r.Read(w.buf[w.hi:])
		w.hi += m
		w.err = err
		if m == 0 && err == nil {
			if idle++; idle == 100 {
				return io.ErrNoProgress
			}
		}
	}
	return nil
}

// oversize serves a request the window cannot hold: what the window has
// buffered is copied out and the rest read straight from the stream.
func (w *window) oversize(n int) ([]byte, error) {
	if n > cap(w.over) {
		w.over = make([]byte, n)
	}
	b := w.over[:n]
	have := copy(b, w.buf[w.lo:w.hi])
	w.lo, w.hi = 0, 0
	if err := w.err; err != nil {
		w.err = nil
		return nil, short(err, have)
	}
	m, err := io.ReadFull(w.r, b[have:])
	if err != nil {
		return nil, short(err, have+m)
	}
	return b, nil
}

// short turns an io.EOF that arrived after have > 0 bytes of a request
// into io.ErrUnexpectedEOF, so readers can tell a clean end of stream
// from a cut inside a record.
func short(err error, have int) error {
	if err == io.EOF && have > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}
