package core

import (
	"bytes"
	"io"
	"sync"
	"time"

	"zoomlens/internal/pcap"
)

// Quarantine is a forensic ring buffer of frames whose processing
// panicked. A production tap must not crash on a hostile packet, but it
// must not lose the evidence either: the analyzer recovers, counts, and
// deposits the offending frame here, and the operator flushes the ring
// to a classic pcap file for offline dissection (the `-quarantine` flag
// of the cmd tools).
//
// The ring keeps the most recent capacity frames. It is safe for
// concurrent use — parallel analyzer shards share one ring.
type Quarantine struct {
	mu      sync.Mutex
	cap     int
	frames  []QuarantinedFrame // ring storage, oldest at (next % cap) once full
	next    int
	total   uint64
	dropped uint64
}

// QuarantinedFrame is one captured offender.
type QuarantinedFrame struct {
	Time   time.Time
	Reason string
	Frame  []byte
}

// DefaultQuarantineCapacity bounds the forensic ring when the caller
// does not choose: enough to dissect an attack burst, small enough to
// never matter for memory.
const DefaultQuarantineCapacity = 1024

// NewQuarantine builds a ring holding up to capacity frames
// (DefaultQuarantineCapacity if capacity <= 0).
func NewQuarantine(capacity int) *Quarantine {
	if capacity <= 0 {
		capacity = DefaultQuarantineCapacity
	}
	return &Quarantine{cap: capacity}
}

// Add deposits one frame. The frame bytes are copied; callers may reuse
// their buffer. This is the panic path, not the packet path, so the copy
// is a plain allocation.
func (q *Quarantine) Add(at time.Time, frame []byte, reason string) {
	qf := QuarantinedFrame{Time: at, Reason: reason, Frame: bytes.Clone(frame)}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.total++
	if len(q.frames) < q.cap {
		q.frames = append(q.frames, qf)
		q.next = len(q.frames) % q.cap
		return
	}
	q.dropped++
	q.frames[q.next] = qf
	q.next = (q.next + 1) % q.cap
}

// Total returns how many frames were ever quarantined (including any
// that have since been overwritten in the ring).
func (q *Quarantine) Total() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total
}

// Dropped returns how many quarantined frames were overwritten before
// being flushed — the ring saturating sheds the oldest evidence with
// accounting rather than growing or blocking the packet path.
func (q *Quarantine) Dropped() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}

// Frames returns the retained frames, oldest first. The frame bytes are
// the ring's own copies, which nothing writes once deposited: read them,
// do not modify them.
func (q *Quarantine) Frames() []QuarantinedFrame {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]QuarantinedFrame, 0, len(q.frames))
	if len(q.frames) < q.cap {
		return append(out, q.frames...)
	}
	out = append(out, q.frames[q.next:]...)
	return append(out, q.frames[:q.next]...)
}

// WritePCAP flushes the retained frames, oldest first, as a classic
// nanosecond pcap (Ethernet link type, matching the analyzer's input).
func (q *Quarantine) WritePCAP(w io.Writer) error {
	pw, err := pcap.NewWriter(w, pcap.WriterOptions{Nanosecond: true})
	if err != nil {
		return err
	}
	for _, f := range q.Frames() {
		if err := pw.WriteRecord(f.Time, f.Frame); err != nil {
			return err
		}
	}
	return nil
}
