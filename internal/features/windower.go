package features

import (
	"math"
	"math/bits"
	"slices"
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/metrics"
	"zoomlens/internal/zoom"
)

const (
	// BurstGap is the inter-arrival gap that separates bursts: packets
	// no more than this far apart belong to one burst.
	BurstGap = 5 * time.Millisecond
	// sizeBuckets is the logarithmic histogram width behind SizeEntropy:
	// bucket i holds wire lengths in [2^(i-1), 2^i) (bucket 0 holds
	// zero-length frames), with everything ≥ 2^14 folded into the top
	// bucket.
	sizeBuckets = 15
	// idleEvictWindows bounds per-stream windower state: a stream whose
	// last packet is this many windows in the past is forgotten at the
	// next window close. Eviction is a pure function of the observation
	// sequence, so it never breaks cross-tier determinism.
	idleEvictWindows = 64
)

// winAcc accumulates one stream's statistics for the window currently
// open.
type winAcc struct {
	pkts         uint64
	wireBytes    uint64
	payloadBytes uint64

	iatN     uint64
	iatSum   float64 // ms
	iatSumSq float64
	iatMin   float64
	iatMax   float64

	bursts int
	curRun int
	maxRun int

	sizeSum   float64
	sizeSumSq float64
	sizeMin   int
	sizeMax   int
	hist      [sizeBuckets]uint64

	seqLost    int
	seqDup     int
	frameMarks int
}

// streamWin is one stream's windower state: the cross-window continuity
// fields (previous arrival, previous RTP sequence/timestamp) plus the
// open-window accumulator.
type streamWin struct {
	lastAt time.Time
	// seqValid/lastSeq track the previous RTP sequence number separately
	// for the main (index 0) and FEC (index 1) substreams: Zoom
	// interleaves them — independent sequence spaces — under one SSRC,
	// while the main substream rotates payload types over a single
	// counter (audio speak/silent/mobile), so neither a single tracker
	// nor a per-payload-type one reads continuity correctly.
	seqValid [2]bool
	lastSeq  [2]uint16
	tsValid  bool
	lastTS   uint32
	open     bool
	acc      winAcc
}

// Windower builds per-stream feature rows over fixed, epoch-aligned
// windows of the capture clock. It is driven by the analyzer's media
// observation stream in global capture order; all of its behavior —
// window closes, stream eviction, emission order — is a pure function
// of that sequence, which is what makes rows byte-identical across the
// sequential, parallel, and cluster tiers.
//
// The capture clock is the maximum observation timestamp seen so far.
// When it crosses into a new window, every open window closes and its
// rows are emitted sorted by stream identity; rows then wait in a
// pending buffer until Drain. Out-of-order timestamps (capture jitter)
// fold into the currently open window rather than resurrecting a closed
// one.
type Windower struct {
	window  time.Duration
	clock   time.Time
	curIdx  int64
	started bool
	// curEndNs is the first nanosecond past the current window — the
	// cached close boundary, so the hot path compares instead of
	// dividing. Derived from curIdx; never encoded.
	curEndNs int64

	streams map[flow.MediaStreamID]*streamWin
	pending []Row

	// lastID/lastStream memoize the previous lookup: frames arrive as
	// bursts of same-stream packets, so most observations hit the
	// stream just touched and skip hashing the wide composite key.
	// Pure cache — never encoded, invalidated on eviction.
	lastID     flow.MediaStreamID
	lastStream *streamWin
}

// NewWindower builds a windower over the given window duration.
// Durations below a millisecond are rejected by rounding up — window
// semantics need a sane grid.
func NewWindower(window time.Duration) *Windower {
	if window < time.Millisecond {
		window = time.Millisecond
	}
	return &Windower{
		window:  window,
		streams: make(map[flow.MediaStreamID]*streamWin),
	}
}

// Window returns the configured window duration.
func (w *Windower) Window() time.Duration { return w.window }

// Observe feeds one media observation. Observations must arrive in
// global capture order (the order the analyzer's reconciliation path
// produces). One stamped outside the grid's span, the int64 Unix
// nanoseconds of years 1678–2262, has no window: it is skipped. Clamped
// to the span's edge it would open the edge window, and by the clock
// rule above every later packet would fold into that one row.
func (w *Windower) Observe(o Obs) {
	ns := metrics.Nanos(o.At)
	if ns == math.MaxInt64 || ns == math.MinInt64 {
		return
	}
	if o.At.After(w.clock) || !w.started {
		if !w.started {
			w.setWindow(windowIndex(o.At, w.window))
			w.started = true
		} else if ns >= w.curEndNs {
			w.closeOpen()
			w.setWindow(windowIndex(o.At, w.window))
		}
		if o.At.After(w.clock) {
			w.clock = o.At
		}
	}
	id := flow.MediaStreamID{Flow: o.Flow, Key: o.Key}
	s := w.lastStream
	if s == nil || id != w.lastID {
		s = w.streams[id]
		if s == nil {
			s = &streamWin{}
			w.streams[id] = s
		}
		w.lastID, w.lastStream = id, s
	}
	a := &s.acc
	if !s.open {
		*a = winAcc{}
		s.open = true
	}
	a.pkts++
	a.wireBytes += uint64(o.WireLen)
	a.payloadBytes += uint64(o.PayloadLen)

	// Inter-arrival and burst shape. The gap spans window boundaries (it
	// is a property of the stream, not the window); a negative gap from
	// capture-timestamp jitter clamps to zero.
	if !s.lastAt.IsZero() {
		gap := o.At.Sub(s.lastAt)
		if gap < 0 {
			gap = 0
		}
		ms := float64(gap) / float64(time.Millisecond)
		if a.iatN == 0 || ms < a.iatMin {
			a.iatMin = ms
		}
		if a.iatN == 0 || ms > a.iatMax {
			a.iatMax = ms
		}
		a.iatN++
		a.iatSum += ms
		a.iatSumSq += ms * ms
		if a.pkts > 1 && gap <= BurstGap {
			a.curRun++
		} else {
			a.bursts++
			a.curRun = 1
		}
	} else {
		a.bursts++
		a.curRun = 1
	}
	if a.curRun > a.maxRun {
		a.maxRun = a.curRun
	}
	s.lastAt = o.At

	// Size distribution.
	sz := float64(o.WireLen)
	a.sizeSum += sz
	a.sizeSumSq += sz * sz
	if a.pkts == 1 || o.WireLen < a.sizeMin {
		a.sizeMin = o.WireLen
	}
	if o.WireLen > a.sizeMax {
		a.sizeMax = o.WireLen
	}
	b := bits.Len(uint(o.WireLen))
	if b >= sizeBuckets {
		b = sizeBuckets - 1
	}
	a.hist[b]++

	// Oracle columns from the RTP header. Continuity is judged within the
	// packet's substream class (main vs FEC); non-Zoom protocols carry
	// FEC/RTX on their own SSRCs, so all of their packets are main.
	sub := 0
	if o.Key.Proto == 0 && zoom.ClassifySubstream(o.Key.Type, o.PT).IsFEC() {
		sub = 1
	}
	if s.seqValid[sub] {
		switch d := o.RTPSeq - s.lastSeq[sub]; {
		case d == 0:
			a.seqDup++
		case d < 0x8000:
			a.seqLost += int(d) - 1
		default:
			// Reordered/late packet: neither a loss nor a duplicate.
		}
	}
	s.seqValid[sub], s.lastSeq[sub] = true, o.RTPSeq
	if !s.tsValid || o.RTPTS != s.lastTS {
		a.frameMarks++
	}
	s.lastTS, s.tsValid = o.RTPTS, true
}

// setWindow moves the open window to index k and recomputes the cached
// close boundary: the smallest UnixNano whose windowIndex exceeds k.
// windowIndex truncates toward zero, so pre-epoch indices end one past
// k*window rather than at (k+1)*window.
func (w *Windower) setWindow(k int64) {
	w.curIdx = k
	if k < 0 {
		w.curEndNs = k*int64(w.window) + 1
	} else {
		w.curEndNs = (k + 1) * int64(w.window)
	}
}

// closeOpen closes every open stream window at curIdx, appending rows
// to the pending buffer sorted by stream identity, and evicts streams
// idle past the eviction horizon.
func (w *Windower) closeOpen() {
	var ids []flow.MediaStreamID
	horizon := w.clock.Add(-time.Duration(idleEvictWindows) * w.window)
	for id, s := range w.streams {
		if s.open {
			ids = append(ids, id)
		} else if s.lastAt.Before(horizon) {
			delete(w.streams, id)
			if w.lastStream == s {
				w.lastStream = nil
			}
		}
	}
	if len(ids) == 0 {
		return
	}
	slices.SortFunc(ids, flow.CompareStreamID)
	start := time.Unix(0, w.curIdx*int64(w.window)).UTC()
	for _, id := range ids {
		s := w.streams[id]
		w.pending = append(w.pending, s.row(start, w.window, id))
		s.open = false
	}
}

// row renders the open accumulator as an emitted Row.
func (s *streamWin) row(start time.Time, window time.Duration, id flow.MediaStreamID) Row {
	a := &s.acc
	r := Row{
		Start:        start,
		Window:       window,
		ID:           id,
		Packets:      a.pkts,
		WireBytes:    a.wireBytes,
		PayloadBytes: a.payloadBytes,
		Bursts:       a.bursts,
		MaxBurstPkts: a.maxRun,
		SizeMinB:     a.sizeMin,
		SizeMaxB:     a.sizeMax,
		SeqLost:      a.seqLost,
		SeqDup:       a.seqDup,
		FrameMarks:   a.frameMarks,
	}
	if a.iatN > 0 {
		n := float64(a.iatN)
		r.IATMeanMS = a.iatSum / n
		r.IATStdMS = stddev(a.iatSumSq, a.iatSum, n)
		r.IATMinMS = a.iatMin
		r.IATMaxMS = a.iatMax
	}
	if a.pkts > 0 {
		n := float64(a.pkts)
		r.SizeMeanB = a.sizeSum / n
		r.SizeStdB = stddev(a.sizeSumSq, a.sizeSum, n)
		r.SizeEntropy = entropy(a.hist[:], a.pkts)
	}
	return r
}

func stddev(sumSq, sum, n float64) float64 {
	v := sumSq/n - (sum/n)*(sum/n)
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

func entropy(hist []uint64, total uint64) float64 {
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// FinishFlush closes every still-open window (emitting partial final
// windows) without advancing the clock. The analyzer calls it from
// Finish so the last window of a capture is not lost.
func (w *Windower) FinishFlush() {
	if !w.started {
		return
	}
	w.closeOpen()
}

// Drain returns the emitted rows accumulated since the previous Drain
// and clears the pending buffer. Drain timing affects only when rows
// become visible, never their content or order — the checkpoint state
// carries undrained rows, so a resumed run emits exactly the rows an
// uninterrupted one would.
func (w *Windower) Drain() []Row {
	rows := w.pending
	w.pending = nil
	return rows
}
