// Package faultpcap injects controlled faults into packet captures for
// robustness testing: truncated files, flipped payload bits, timestamp
// discontinuities, and duplicated records — the corruption modes a
// production tap actually meets (crashed tcpdump, failing NICs or disks,
// NTP steps, switch-level mirroring duplicating frames).
//
// Faults are deterministic: the same input, fault, and seed always yield
// the same corrupted capture, so differential tests can feed an
// identical damaged stream to several analyzer configurations and demand
// identical results.
package faultpcap

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"zoomlens/internal/pcap"
)

// Fault selects one corruption mode.
type Fault int

const (
	// None passes the capture through unchanged (the control arm).
	None Fault = iota
	// Truncate cuts the capture mid-record, as a crashed or interrupted
	// writer would.
	Truncate
	// BitFlip flips one random bit in the payload of randomly chosen
	// records.
	BitFlip
	// TimestampJump introduces large forward and backward timestamp
	// steps, as an NTP correction on the capture host would.
	TimestampJump
	// Duplicate re-delivers randomly chosen records immediately after
	// the original, as mirror ports under load do.
	Duplicate
)

// String names the fault for test labels.
func (f Fault) String() string {
	switch f {
	case None:
		return "none"
	case Truncate:
		return "truncate"
	case BitFlip:
		return "bitflip"
	case TimestampJump:
		return "tsjump"
	case Duplicate:
		return "duplicate"
	}
	return fmt.Sprintf("Fault(%d)", int(f))
}

// Options parameterizes the injection.
type Options struct {
	Fault Fault
	// Seed drives every random choice; equal seeds yield equal output.
	Seed int64
	// Rate is the per-record fault probability for BitFlip, Duplicate,
	// and TimestampJump (default 1/16).
	Rate float64
	// Jump is the timestamp step magnitude for TimestampJump (default
	// one minute).
	Jump time.Duration
}

func (o Options) withDefaults() Options {
	if o.Rate <= 0 {
		o.Rate = 1.0 / 16
	}
	if o.Jump <= 0 {
		o.Jump = time.Minute
	}
	return o
}

// Reader wraps a pcap record source and yields the same records with the
// configured record-level fault applied (BitFlip, TimestampJump,
// Duplicate; Truncate is a byte-level fault — use Apply).
type Reader struct {
	next    func() (pcap.Record, error)
	opt     Options
	rng     *rand.Rand
	pending []pcap.Record
	shift   time.Duration
}

// NewReader wraps next (for example (*pcap.Reader).Next) with fault
// injection.
func NewReader(next func() (pcap.Record, error), opt Options) *Reader {
	opt = opt.withDefaults()
	return &Reader{next: next, opt: opt, rng: rand.New(rand.NewSource(opt.Seed))}
}

// Next returns the next (possibly corrupted) record.
func (r *Reader) Next() (pcap.Record, error) {
	if len(r.pending) > 0 {
		rec := r.pending[0]
		r.pending = r.pending[1:]
		return rec, nil
	}
	rec, err := r.next()
	if err != nil {
		return rec, err
	}
	switch r.opt.Fault {
	case BitFlip:
		if len(rec.Data) > 0 && r.rng.Float64() < r.opt.Rate {
			i := r.rng.Intn(len(rec.Data))
			rec.Data[i] ^= 1 << uint(r.rng.Intn(8))
		}
	case TimestampJump:
		if r.rng.Float64() < r.opt.Rate {
			if r.rng.Intn(2) == 0 {
				r.shift += r.opt.Jump
			} else {
				r.shift -= r.opt.Jump / 2
			}
		}
		rec.Timestamp = rec.Timestamp.Add(r.shift)
	case Duplicate:
		if r.rng.Float64() < r.opt.Rate {
			cp := rec
			cp.Data = append([]byte(nil), rec.Data...)
			r.pending = append(r.pending, cp)
		}
	}
	return rec, nil
}

// Apply reads an entire classic-pcap capture and returns a new capture
// with the fault injected. For Truncate the returned bytes end mid-way
// through the final record, at a seed-chosen offset.
func Apply(src []byte, opt Options) ([]byte, error) {
	opt = opt.withDefaults()
	r, err := pcap.NewReader(bytes.NewReader(src))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.WriterOptions{
		Nanosecond: r.Header().Nanosecond,
		SnapLen:    r.Header().SnapLen,
		LinkType:   r.Header().LinkType,
	})
	if err != nil {
		return nil, err
	}
	fr := NewReader(r.Next, opt)
	lastStart := buf.Len()
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		lastStart = buf.Len()
		if err := w.WriteRecord(rec.Timestamp, rec.Data); err != nil {
			return nil, err
		}
	}
	out := buf.Bytes()
	if opt.Fault == Truncate && buf.Len() > lastStart+1 {
		recLen := buf.Len() - lastStart
		cut := lastStart + 1 + fr.rng.Intn(recLen-1)
		out = out[:cut]
	}
	return out, nil
}
