package metrics

import (
	"math"
	"slices"
	"time"

	"zoomlens/internal/rtp"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/zoom"
)

// Sample is one timestamped metric value: 16 bytes and no pointer, so a
// series is memory the collector never scans.
type Sample struct {
	At    int64 // capture time in Unix nanoseconds (see Nanos)
	Value float64
}

// Time returns the capture time, in UTC as the capture readers stamp it.
func (s Sample) Time() time.Time { return time.Unix(0, s.At).UTC() }

// Nanos returns t in Unix nanoseconds, the form the per-stream
// accumulators keep capture times in. That spans the years 1678 to 2262,
// UnixNano is undefined outside them and a capture file can claim any
// instant, so a time in or beyond either end's last second is held at
// that end.
func Nanos(t time.Time) int64 {
	const limit = math.MaxInt64 / int64(time.Second)
	switch sec := t.Unix(); {
	case sec >= limit:
		return math.MaxInt64
	case sec <= -limit:
		return math.MinInt64
	}
	return t.UnixNano()
}

// Series is an append-only time series.
type Series struct {
	Samples statecodec.Log[Sample]
}

// Add appends a sample taken at Unix nanosecond at.
func (s *Series) Add(at int64, v float64) { s.Samples.Append(Sample{at, v}) }

// Values returns just the sample values.
func (s Series) Values() []float64 {
	out := make([]float64, s.Samples.Len())
	for i := range out {
		out[i] = s.Samples.At(i).Value
	}
	return out
}

// Bin aggregates the series into fixed bins of the given width starting
// at origin, applying agg ("mean", "sum", "count", "last") per bin.
// Empty bins between the first and last sample yield 0.
func (s Series) Bin(origin time.Time, width time.Duration, agg string) []Sample {
	if s.Samples.Len() == 0 {
		return nil
	}
	type acc struct {
		sum   float64
		count int
		last  float64
	}
	bins := map[int64]*acc{}
	var minIdx, maxIdx int64
	first := true
	for i := range s.Samples.Len() {
		sm := s.Samples.At(i)
		// Floor division: samples earlier than origin must land in
		// negative bins, not get truncated toward zero into bin 0.
		d := sm.Time().Sub(origin)
		idx := int64(d / width)
		if d < 0 && d%width != 0 {
			idx--
		}
		a := bins[idx]
		if a == nil {
			a = &acc{}
			bins[idx] = a
		}
		a.sum += sm.Value
		a.count++
		a.last = sm.Value
		if first {
			minIdx, maxIdx = idx, idx
			first = false
		} else {
			if idx < minIdx {
				minIdx = idx
			}
			if idx > maxIdx {
				maxIdx = idx
			}
		}
	}
	out := make([]Sample, 0, maxIdx-minIdx+1)
	for i := minIdx; i <= maxIdx; i++ {
		t := origin.Add(time.Duration(i) * width)
		a := bins[i]
		var v float64
		if a != nil {
			switch agg {
			case "sum":
				v = a.sum
			case "count":
				v = float64(a.count)
			case "last":
				v = a.last
			default:
				v = a.sum / float64(a.count)
			}
		}
		out = append(out, Sample{Nanos(t), v})
	}
	return out
}

// StreamMetrics analyzes one media stream (one SSRC + media type on one
// or more flows after unification) and produces every per-stream metric
// in Table 4.
type StreamMetrics struct {
	MediaType zoom.MediaType

	// clockRate is the stream's RTP clock, which follows from MediaType:
	// video uses zoom.VideoClockRate; for audio/screen share the paper
	// (and we) treat the clock as unknown (0) and skip wall-clock jitter.
	clockRate float64

	// Per-substream state, ascending by RTP payload type: a stream carries
	// a handful, so the packet path scans.
	subs []*substreamState

	// frames is the frame log: one record per finished frame, in the
	// order frames finished. Every per-frame series (FrameRate,
	// EncoderRate, FrameSize) and the clock-rate sweep's input are views
	// of it; see Frames.
	frames statecodec.Log[FrameRecord]

	// JitterMS is the §5.4 frame-level jitter in milliseconds. It is
	// sampled at a frame's first packet, not at its completion, so it has
	// its own cardinality and stays a stored series.
	JitterMS Series

	// Counters.
	Packets    uint64
	MediaBytes uint64 // RTP payload bytes

	// mainSeq is the shared non-FEC sequence tracker (see sub()).
	mainSeq *rtp.SeqTracker

	// Talk quantifies speaking time from the audio substream split
	// (§4.2.3); only active for audio streams.
	Talk *TalkTracker

	// rate accounting in one-second bins; binStart in Unix nanoseconds
	binStart  int64
	binMedia  uint64
	haveBin   bool
	MediaRate Series // bits per second, one sample per elapsed second

	// finished guards Finish against double invocation: ReadPCAP calls
	// Finish internally, and a second Finish must not re-flush the open
	// rate bin (flushBin advances binStart, so an unguarded second call
	// appended a spurious zero-rate sample per invocation).
	finished bool

	// base is where the logs stood at the last checkpoint, as MarkDirty
	// found them: a delta record carries of each only what lies past it.
	base logLens
}

// logLens holds the lengths of a stream's four append-only logs: the frame
// log, the two stored series and the talk segments. Every writer of one
// appends and nothing rewrites an element, so the lengths at a checkpoint
// say exactly which part of each log that checkpoint holds.
type logLens struct {
	frames, jitter, media, talk int
}

func (sm *StreamMetrics) logLens() logLens {
	n := logLens{frames: sm.frames.Len(), jitter: sm.JitterMS.Samples.Len(), media: sm.MediaRate.Samples.Len()}
	if sm.Talk != nil {
		n.talk = len(sm.Talk.segments)
	}
	return n
}

// MarkDirty notes how long the stream's logs are. Its owner calls it
// before the stream's first mutation after a checkpoint, or before writing
// a delta that carries a stream untouched since: that is how long they
// were at the checkpoint, and a delta record carries them from there.
func (sm *StreamMetrics) MarkDirty() { sm.base = sm.logLens() }

// maxIdleGap caps zero-rate gap-fill in the rate series: when the
// stream is silent for longer than this, the rate bins skip ahead to the
// next packet instead of emitting one zero sample per elapsed second (an
// idle stream spanning a 12-hour campus trace would otherwise append
// ~43k useless samples per series). The semantics mirror idle eviction's
// archiving: a stream idle that long is effectively over until it
// speaks again.
const maxIdleGap = 60 * time.Second

type substreamState struct {
	assembler *FrameAssembler
	seq       *rtp.SeqTracker
	window    *FrameRateWindow
	encoder   *EncoderFrameRate
	pt        uint8
	isMain    bool
	jitter    *rtp.Jitter // with the timestamps it sampled, when the clock rate is known
	tsSeen    *tsRing
}

// tsRing remembers a substream's most recent distinct frame timestamps,
// as many as an assembler keeps frames open, so that "have I seen this
// frame" and "is this frame still open" share one horizon.
type tsRing struct {
	ts     [maxOpenFrames]uint32
	added  int    // timestamps ever added; the next goes to ts[added%len(ts)]
	newest uint32 // the furthest-ahead of them
}

// seen reports whether ts is among the remembered timestamps, and
// remembers it if not. A timestamp ahead of every earlier one — nearly
// every frame's first packet — is new without a search.
func (r *tsRing) seen(ts uint32) bool {
	if r.added == 0 || rtp.TSDiff(r.newest, ts) > 0 {
		r.newest = ts
	} else if slices.Contains(r.ts[:min(r.added, len(r.ts))], ts) {
		return true
	}
	r.ts[r.added%len(r.ts)] = ts
	r.added++
	return false
}

// NewStreamMetrics builds an analyzer for one stream.
func NewStreamMetrics(mt zoom.MediaType) *StreamMetrics {
	sm := new(StreamMetrics)
	sm.init(mt)
	return sm
}

// init makes sm the empty analyzer of a stream of type mt. Everything
// that is not accumulated from packets follows from mt here — the RTP
// clock and whether the talk model runs — so a checkpoint record carries
// the type and nothing derived from it.
func (sm *StreamMetrics) init(mt zoom.MediaType) {
	*sm = StreamMetrics{MediaType: mt}
	if mt == zoom.TypeVideo {
		sm.clockRate = zoom.VideoClockRate
	}
	if mt == zoom.TypeAudio {
		sm.Talk = NewTalkTracker()
	}
}

// subBlock bundles a substream's value components into one allocation.
// Substream construction runs once per (stream, payload type) — tens of
// thousands of times during a checkpoint restore — and four separately
// allocated husks per substream showed up as measurable GC pressure
// there.
type subBlock struct {
	st        substreamState
	window    FrameRateWindow
	encoder   EncoderFrameRate
	assembler FrameAssembler
}

// newSub returns the empty substream of payload type pt: window,
// encoder and assembler wired to block-mates, completed frames delivered
// to sm, and the sequence space and jitter estimator the stream's type
// and pt call for. The packet path and a decoding pass both build
// substreams here.
func (sm *StreamMetrics) newSub(pt uint8) *substreamState {
	b := &subBlock{encoder: EncoderFrameRate{clockRate: sm.clockRate}}
	b.st.window = &b.window
	b.st.encoder = &b.encoder
	b.st.assembler = &b.assembler
	st := &b.st
	st.pt = pt
	b.assembler.OnFrame = func(f *Frame, complete bool) {
		sm.onFrame(st, f, complete)
	}
	st.isMain = !zoom.ClassifySubstream(sm.MediaType, pt).IsFEC()
	// Sequence-number spaces: FEC uses its own sequence numbers; all
	// other substreams of a stream share one space (§4.2.3 — audio
	// types 99/112 interleave within a single counter). Share the
	// tracker accordingly so mode flips do not register false loss.
	if st.isMain {
		if sm.mainSeq == nil {
			sm.mainSeq = rtp.NewSeqTracker()
		}
		st.seq = sm.mainSeq
	} else {
		st.seq = rtp.NewSeqTracker()
	}
	if sm.clockRate > 0 {
		st.jitter = rtp.NewJitter(sm.clockRate)
		st.tsSeen = new(tsRing)
	}
	return st
}

// find returns the substream of payload type pt, nil if there is none.
func (sm *StreamMetrics) find(pt uint8) *substreamState {
	for _, st := range sm.subs {
		if st.pt == pt {
			return st
		}
	}
	return nil
}

// sub returns the substream of payload type pt, building it in its place
// in the order if it is the type's first packet.
func (sm *StreamMetrics) sub(pt uint8) *substreamState {
	st := sm.find(pt)
	if st == nil {
		st = sm.newSub(pt)
		i := 0
		for i < len(sm.subs) && sm.subs[i].pt < pt {
			i++
		}
		if sm.subs == nil {
			sm.subs = make([]*substreamState, 0, 4) // what a real stream fills, in one allocation
		}
		sm.subs = slices.Insert(sm.subs, i, st)
	}
	return st
}

// Observe ingests one media packet belonging to this stream. wireLen, the
// packet's on-the-wire length, is not used: the flow table counts wire
// bytes, and nothing reads them per stream.
func (sm *StreamMetrics) Observe(t time.Time, wireLen int, media *zoom.MediaEncap, pkt *rtp.Packet) {
	at := Nanos(t)
	sm.finished = false
	sm.Packets++
	sm.MediaBytes += uint64(len(pkt.Payload))
	sm.binAdd(at, len(pkt.Payload))

	if sm.Talk != nil {
		sm.Talk.Observe(t, pkt.PayloadType)
	}
	st := sm.sub(pkt.PayloadType)
	st.seq.Observe(pkt.SequenceNumber)
	if !st.isMain {
		return // FEC substreams share timestamps; do not double-count frames
	}
	// Frame-level jitter: sample on the first packet of each frame, which
	// is the one whose timestamp the substream has not seen yet.
	if st.jitter != nil && !st.tsSeen.seen(pkt.Timestamp) {
		j := st.jitter.Observe(float64(at)/float64(time.Second), pkt.Timestamp)
		sm.JitterMS.Add(at, j*1000)
	}
	st.assembler.Observe(at, media, pkt)
}

// onFrame appends the finished frame's one record to the log. The two
// frame-rate estimators run live and the record keeps what they answered,
// so a view never replays them.
func (sm *StreamMetrics) onFrame(st *substreamState, f *Frame, complete bool) {
	rec := FrameRecord{
		At:       f.Completed,
		Delay:    f.Completed - f.FirstPacket,
		TS:       f.RTPTimestamp,
		Bytes:    saturate32(f.Bytes),
		Rate:     saturate32(st.window.Add(f.Completed)),
		PT:       st.pt,
		Complete: complete,
	}
	if sm.clockRate > 0 {
		rec.DeltaTS = st.encoder.delta(f.RTPTimestamp)
	}
	sm.frames.Append(rec)
}

func (sm *StreamMetrics) binAdd(at int64, media int) {
	second := at - at%int64(time.Second)
	if !sm.haveBin {
		sm.haveBin = true
		sm.binStart = second
	}
	if at-sm.binStart > int64(maxIdleGap) {
		// Long idle gap: flush the open bin, emit nothing for the silent
		// span, and resume at the current second.
		sm.flushBin()
		sm.binStart = second
	}
	for at-sm.binStart >= int64(time.Second) {
		sm.flushBin()
	}
	sm.binMedia += uint64(media)
}

func (sm *StreamMetrics) flushBin() {
	sm.MediaRate.Add(sm.binStart, float64(sm.binMedia)*8)
	sm.binStart += min(int64(time.Second), math.MaxInt64-sm.binStart) // no further than Nanos goes
	sm.binMedia = 0
}

// Finish flushes assemblers and the open rate bin. Finish is
// idempotent: repeated calls without an intervening Observe are no-ops.
func (sm *StreamMetrics) Finish() {
	if sm.finished {
		return
	}
	sm.finished = true
	// In payload-type order: the frames still open at the end of several
	// substreams land in the log the same way every run.
	for _, st := range sm.subs {
		st.assembler.Flush()
	}
	if sm.haveBin {
		sm.flushBin()
	}
	if sm.Talk != nil {
		sm.Talk.Finish()
	}
}

// LossStats aggregates the §5.5 sequence analysis across the stream's
// sequence spaces (the shared main space plus each FEC space).
func (sm *StreamMetrics) LossStats() rtp.Stats {
	var out rtp.Stats
	add := func(t *rtp.SeqTracker) {
		s := t.Stats()
		out.Received += s.Received
		out.Duplicates += s.Duplicates
		out.Reordered += s.Reordered
		out.ExpectedSpan += s.ExpectedSpan
		out.EstimatedLost += s.EstimatedLost
	}
	if sm.mainSeq != nil {
		add(sm.mainSeq)
	}
	for _, st := range sm.subs {
		if !st.isMain {
			add(st.seq)
		}
	}
	return out
}
