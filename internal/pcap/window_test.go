package pcap

// The read-window contract, for classic pcap and pcapng in both byte
// orders: however the underlying reader chops the stream up, the records
// are the same; a record is lent in place and returned as soon as its own
// bytes have arrived; a record larger than the window still round-trips;
// and a capture of small frames costs about one Read per window, not two
// per record. (Cuts at every byte offset live in truncation_test.go.)

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/iotest"
	"time"
)

// contractCapture is one serialisation of a payload list.
type contractCapture struct {
	name string
	raw  []byte
	// bounds are the offsets at which a cut is clean: the end of each
	// header block and of each packet record. packets[i] is the offset at
	// which payload i's record ends.
	bounds  []int
	packets []int
}

// start is where the first packet record begins.
func (c contractCapture) start() int { return c.bounds[len(c.bounds)-len(c.packets)-1] }

func contractTime(i int) time.Time { return time.Unix(int64(1000+i), int64(i)*1000).UTC() }

// contractCaptures serialises payloads four ways. The classic files are
// built by hand (Writer only writes little-endian), the pcapng ones by
// the test ngWriter, which takes a byte order.
func contractCaptures(payloads [][]byte) []contractCapture {
	var out []contractCapture
	for _, o := range []struct {
		name  string
		order interface {
			binary.ByteOrder
			binary.AppendByteOrder
		}
	}{{"le", binary.LittleEndian}, {"be", binary.BigEndian}} {
		c := contractCapture{name: "pcap-" + o.name}
		b := make([]byte, globalHeaderLen)
		o.order.PutUint32(b[0:4], MagicNanoseconds)
		o.order.PutUint16(b[4:6], 2)
		o.order.PutUint16(b[6:8], 4)
		o.order.PutUint32(b[16:20], 1<<24)
		o.order.PutUint32(b[20:24], LinkTypeEthernet)
		c.bounds = append(c.bounds, len(b))
		for i, p := range payloads {
			ts := contractTime(i)
			b = o.order.AppendUint32(b, uint32(ts.Unix()))
			b = o.order.AppendUint32(b, uint32(ts.Nanosecond()))
			b = o.order.AppendUint32(b, uint32(len(p)))
			b = o.order.AppendUint32(b, uint32(len(p)))
			b = append(b, p...)
			c.bounds = append(c.bounds, len(b))
			c.packets = append(c.packets, len(b))
		}
		c.raw = b
		out = append(out, c)

		ng := contractCapture{name: "pcapng-" + o.name}
		w := &ngWriter{order: o.order}
		w.shb()
		ng.bounds = append(ng.bounds, w.buf.Len())
		w.idb(uint16(LinkTypeEthernet), 9)
		ng.bounds = append(ng.bounds, w.buf.Len())
		for i, p := range payloads {
			w.epb(0, contractTime(i), 1e9, p)
			ng.bounds = append(ng.bounds, w.buf.Len())
			ng.packets = append(ng.packets, w.buf.Len())
		}
		ng.raw = w.buf.Bytes()
		out = append(out, ng)
	}
	return out
}

// smallPayloads are distinct in length and content, with lengths that
// need 0–3 bytes of pcapng padding.
func smallPayloads() [][]byte {
	var out [][]byte
	for i, n := range []int{60, 9, 128, 1, 42, 0, 75} {
		out = append(out, bytes.Repeat([]byte{byte(0x11 * (i + 1))}, n))
	}
	return out
}

// readAll drains a stream, copying each record, and fails on any error
// but a final io.EOF.
func readAll(t *testing.T, r io.Reader) (recs []Record, truncated bool) {
	t.Helper()
	s, err := OpenStream(r)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	var rec Record
	for {
		err := s.NextInto(&rec)
		if err == io.EOF {
			return recs, s.Truncated()
		}
		if err != nil {
			t.Fatalf("record %d: %v", len(recs), err)
		}
		cp := rec
		cp.Data = bytes.Clone(rec.Data)
		recs = append(recs, cp)
	}
}

// checkRecords demands that recs are exactly the first len(recs)
// payloads, timestamps included.
func checkRecords(t *testing.T, recs []Record, payloads [][]byte) {
	t.Helper()
	for i, rec := range recs {
		if !bytes.Equal(rec.Data, payloads[i]) || rec.OriginalLen != len(payloads[i]) || !rec.Timestamp.Equal(contractTime(i)) {
			t.Fatalf("record %d = %d bytes (orig %d) at %v, want %d bytes at %v",
				i, len(rec.Data), rec.OriginalLen, rec.Timestamp, len(payloads[i]), contractTime(i))
		}
	}
}

// TestReaderSameRecordsHoweverChopped: the same record sequence through
// readers that return one byte per Read, half of what was asked, the
// last bytes together with io.EOF, and everything at once.
func TestReaderSameRecordsHoweverChopped(t *testing.T) {
	payloads := smallPayloads()
	wrappers := map[string]func(io.Reader) io.Reader{
		"plain":        func(r io.Reader) io.Reader { return r },
		"one-byte":     iotest.OneByteReader,
		"half":         iotest.HalfReader,
		"data-err":     iotest.DataErrReader,
		"one-byte+err": func(r io.Reader) io.Reader { return iotest.DataErrReader(iotest.OneByteReader(r)) },
	}
	for _, c := range contractCaptures(payloads) {
		for name, wrap := range wrappers {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				recs, truncated := readAll(t, wrap(bytes.NewReader(c.raw)))
				if len(recs) != len(payloads) || truncated {
					t.Fatalf("read %d records (truncated=%v), want %d", len(recs), truncated, len(payloads))
				}
				checkRecords(t, recs, payloads)
			})
		}
	}
}

// TestReaderOversizeRecords: records exactly as large as the window, one
// byte larger, and several windows long round-trip, with small records
// around them to prove the stream stays in step afterwards.
func TestReaderOversizeRecords(t *testing.T) {
	fill := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i*7)
		}
		return b
	}
	// Classic records carry a 16-byte header, EPBs 32 bytes of framing;
	// sizing against the smaller puts the classic records exactly on the
	// edge and the pcapng blocks 16 bytes past it, and the -16 pair covers
	// the pcapng edge.
	payloads := [][]byte{
		fill(60, 1),
		fill(windowSize-recordHeaderLen, 2), // classic record == window
		fill(9, 3),
		fill(windowSize-recordHeaderLen+1, 4), // classic record == window + 1
		fill(windowSize-32, 5),                // pcapng block == window
		fill(windowSize-32+1, 6),              // pcapng block == window + 4 (padded)
		fill(61, 7),
		fill(3*windowSize+5, 8),
		fill(62, 9),
		fill(windowSize+1, 10), // smaller than the oversize buffer already grown
		fill(63, 11),
	}
	for _, c := range contractCaptures(payloads) {
		for name, wrap := range map[string]func(io.Reader) io.Reader{
			"plain": func(r io.Reader) io.Reader { return r },
			"half":  iotest.HalfReader,
		} {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				recs, truncated := readAll(t, wrap(bytes.NewReader(c.raw)))
				if len(recs) != len(payloads) || truncated {
					t.Fatalf("read %d records (truncated=%v), want %d", len(recs), truncated, len(payloads))
				}
				checkRecords(t, recs, payloads)
			})
		}
		// A cut inside the oversize record is a truncation like any other.
		t.Run(c.name+"/cut", func(t *testing.T) {
			recs, truncated := readAll(t, bytes.NewReader(c.raw[:c.packets[7]-windowSize]))
			if len(recs) != 7 || !truncated {
				t.Fatalf("read %d records (truncated=%v), want 7 and a truncation", len(recs), truncated)
			}
			checkRecords(t, recs, payloads)
		})
	}
}

// TestReaderReturnsRecordAsSoonAsItArrives: on a pipe whose writer has
// sent one whole record and then blocks, NextInto must return that
// record — a reader that waits to fill its window would hang here, and
// with it every `-i -` tap and every zoomsplit worker stream.
func TestReaderReturnsRecordAsSoonAsItArrives(t *testing.T) {
	payloads := smallPayloads()
	for _, c := range contractCaptures(payloads) {
		t.Run(c.name, func(t *testing.T) {
			pr, pw := io.Pipe()
			defer pr.Close()
			// The writer sends the headers and then one record per token,
			// so it is provably idle while the reader is asked for a record.
			// (Closing step on the way out lets it run off the end if the test
			// fails half way.)
			step := make(chan struct{}, 1)
			defer close(step)
			go func() {
				off := c.start()
				pw.Write(c.raw[:off])
				for _, end := range c.packets {
					<-step
					pw.Write(c.raw[off:end])
					off = end
				}
				<-step
				pw.Close()
			}()
			type result struct {
				rec Record
				err error
			}
			var s *Stream
			next := func() result {
				done := make(chan result, 1)
				go func() {
					var res result
					if s == nil {
						if s, res.err = OpenStream(pr); res.err != nil {
							done <- res
							return
						}
					}
					res.err = s.NextInto(&res.rec)
					res.rec.Data = bytes.Clone(res.rec.Data)
					done <- res
				}()
				select {
				case res := <-done:
					return res
				case <-time.After(10 * time.Second):
					t.Fatal("NextInto is waiting for more than the record it was asked for")
					return result{}
				}
			}
			var got []Record
			for i := range payloads {
				step <- struct{}{}
				res := next()
				if res.err != nil {
					t.Fatalf("record %d: %v", i, res.err)
				}
				got = append(got, res.rec)
			}
			checkRecords(t, got, payloads)
			step <- struct{}{}
			if res := next(); res.err != io.EOF || s.Truncated() {
				t.Fatalf("after the writer closed: err=%v truncated=%v, want a clean io.EOF", res.err, s.Truncated())
			}
		})
	}
}

// countingReader counts the Read calls that reach the underlying stream.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReaderReadsPerWindow is the syscall budget, as a count that
// repeats exactly: 10,000 60-byte records cost at most one Read per
// window of bytes, plus the one that finds the end of the stream and
// one of slack — against two per record before the window.
func TestReaderReadsPerWindow(t *testing.T) {
	payloads := make([][]byte, 10000)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, 60)
	}
	for _, c := range contractCaptures(payloads) {
		t.Run(c.name, func(t *testing.T) {
			cr := &countingReader{r: bytes.NewReader(c.raw)}
			recs, truncated := readAll(t, cr)
			if len(recs) != len(payloads) || truncated {
				t.Fatalf("read %d records (truncated=%v), want %d", len(recs), truncated, len(payloads))
			}
			budget := (len(c.raw)+windowSize-1)/windowSize + 2
			if cr.reads > budget {
				t.Fatalf("%d underlying Reads for %d bytes in %d records; budget ⌈bytes÷window⌉+2 = %d",
					cr.reads, len(c.raw), len(recs), budget)
			}
			t.Logf("%d Reads for %d records (%d bytes, window %d)", cr.reads, len(recs), len(c.raw), windowSize)
		})
	}
}

// TestWindowLendsInPlace restates the borrowed-buffer rule for the
// window. Between refills nothing is copied: consecutive records' Data
// are slices of one backing array, exactly as far apart as the records
// are in the stream. What a caller may rely on is only the converse —
// Data is valid until the next call and never after
// (TestNextIntoBorrowsBuffer shows a refill overwriting it).
func TestWindowLendsInPlace(t *testing.T) {
	payloads := smallPayloads()
	for _, c := range contractCaptures(payloads) {
		t.Run(c.name, func(t *testing.T) {
			s, err := OpenStream(bytes.NewReader(c.raw))
			if err != nil {
				t.Fatal(err)
			}
			var prev, rec Record
			if err := s.NextInto(&prev); err != nil {
				t.Fatal(err)
			}
			// prevOff/off: where the payloads start in the stream.
			prevOff := bytes.Index(c.raw, payloads[0])
			if err := s.NextInto(&rec); err != nil {
				t.Fatal(err)
			}
			off := c.packets[0] + bytes.Index(c.raw[c.packets[0]:], payloads[1])
			window := prev.Data[:cap(prev.Data)]
			if d := off - prevOff; d >= len(window) || &window[d] != &rec.Data[0] {
				t.Fatalf("record 1's Data is not %d bytes after record 0's in the same array: a copy crept in", d)
			}
		})
	}
}

// TestReaderErrorsAreNotSticky: an error from the underlying reader is
// reported once; the next call reads again. A tap polling a growing
// stream depends on it.
func TestReaderErrorsAreNotSticky(t *testing.T) {
	payloads := smallPayloads()
	for _, c := range contractCaptures(payloads) {
		t.Run(c.name, func(t *testing.T) {
			cut := c.packets[2] + 5 // inside record 3
			grow := &growingReader{data: c.raw, avail: cut}
			s, err := OpenStream(grow)
			if err != nil {
				t.Fatal(err)
			}
			var rec Record
			var got []Record
			drain := func() {
				for {
					err := s.NextInto(&rec)
					if err == io.EOF {
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					cp := rec
					cp.Data = bytes.Clone(rec.Data)
					got = append(got, cp)
				}
			}
			drain()
			if len(got) != 3 || !s.Truncated() {
				t.Fatalf("before growth: %d records, truncated=%v; want 3, true", len(got), s.Truncated())
			}
			grow.avail = len(c.raw)
			drain()
			if len(got) != len(payloads) {
				t.Fatalf("after growth: %d records, want %d", len(got), len(payloads))
			}
			checkRecords(t, got, payloads)
		})
	}
}

// growingReader serves data[:avail] and io.EOF beyond it; raising avail
// models a file another process is still appending to.
type growingReader struct {
	data  []byte
	off   int
	avail int
}

func (g *growingReader) Read(p []byte) (int, error) {
	if g.off >= g.avail {
		return 0, io.EOF
	}
	n := copy(p, g.data[g.off:g.avail])
	g.off += n
	return n, nil
}
