package core

import (
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

	// buf backs Frame while the entry sits in the ring; it is drawn from
	// the package framePool and recycled when the slot is overwritten.
	// Entries returned by Frames carry a fresh copy and a nil buf.
	buf *pbatch
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

// Add deposits one frame. The frame bytes are copied into a pooled
// buffer; callers may reuse their buffer.
func (q *Quarantine) Add(at time.Time, frame []byte, reason string) {
	b := getBatch()
	b.data = append(b.data, frame...)
	qf := QuarantinedFrame{Time: at, Reason: reason, Frame: b.data, buf: b}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.total++
	if len(q.frames) < q.cap {
		q.frames = append(q.frames, qf)
		q.next = len(q.frames) % q.cap
		return
	}
	if old := q.frames[q.next].buf; old != nil {
		putBatch(old)
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

// Frames returns the retained frames, oldest first. Frame bytes are
// fresh copies owned by the caller: the ring's own storage is pooled
// and recycled as newer offenders overwrite old slots.
func (q *Quarantine) Frames() []QuarantinedFrame {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]QuarantinedFrame, 0, len(q.frames))
	if len(q.frames) < q.cap {
		out = append(out, q.frames...)
	} else {
		out = append(out, q.frames[q.next:]...)
		out = append(out, q.frames[:q.next]...)
	}
	for i := range out {
		cp := make([]byte, len(out[i].Frame))
		copy(cp, out[i].Frame)
		out[i].Frame = cp
		out[i].buf = nil
	}
	return out
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
