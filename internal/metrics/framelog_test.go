package metrics

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"zoomlens/internal/rtp"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/zoom"
)

// frameDelay is §5.5's frame delay and packetizationMS the encoder's time
// per frame, both in milliseconds: the frame log's Delay and DeltaTS
// columns as series, in the units the oracle keeps.
func frameDelay(sm *StreamMetrics) Series {
	return sm.frameSeries(func(f *FrameRecord) (float64, bool) {
		return float64(f.Delay) / float64(time.Millisecond), true
	})
}

// packetization is FR⁻¹, the media time one frame spans.
func packetization(delta uint32, clockRate float64) time.Duration {
	return time.Duration(float64(delta) / clockRate * float64(time.Second))
}

func packetizationMS(sm *StreamMetrics) Series {
	return sm.frameSeries(func(f *FrameRecord) (float64, bool) {
		if f.DeltaTS == 0 {
			return 0, false
		}
		return float64(packetization(f.DeltaTS, sm.clockRate)) / float64(time.Millisecond), true
	})
}

// seriesOracle is the per-frame bookkeeping the frame log replaced, kept
// as the reference: every finished frame is appended to five stored
// series and the clock sweep's observation list, with its own window and
// encoder estimator per substream. It shares only the FrameAssembler with
// StreamMetrics.
type seriesOracle struct {
	mt        zoom.MediaType
	clockRate float64
	subs      map[uint8]*oracleSub

	FrameRate, EncoderRate, FrameSize, FrameDelay, Packetization Series
	frameObs                                                     []FrameObservation
	FramesTotal, FramesIncomplete                                uint64
}

type oracleSub struct {
	assembler FrameAssembler
	window    FrameRateWindow
	encoder   EncoderFrameRate
}

// Observe feeds the RTP timestamp of each new frame (in decode order) and
// returns (frame rate in fps, packetization time, ok): the estimator as
// the oracle runs it. ok is false for the first frame and for
// non-increasing timestamps.
func (e *EncoderFrameRate) Observe(ts uint32) (fps float64, packetizationTime time.Duration, ok bool) {
	d := e.delta(ts)
	if d == 0 {
		return 0, 0, false
	}
	return encoderRate(d, e.clockRate), packetization(d, e.clockRate), true
}

// Delay returns the frame delay of §5.5: time from first packet to full
// delivery, as the oracle stores it (the log's Delay column).
func (f *Frame) Delay() time.Duration { return time.Duration(f.Completed - f.FirstPacket) }

func newSeriesOracle(mt zoom.MediaType) *seriesOracle {
	o := &seriesOracle{mt: mt, subs: make(map[uint8]*oracleSub)}
	if mt == zoom.TypeVideo {
		o.clockRate = zoom.VideoClockRate
	}
	return o
}

func (o *seriesOracle) Observe(t time.Time, media *zoom.MediaEncap, pkt *rtp.Packet) {
	if zoom.ClassifySubstream(o.mt, pkt.PayloadType).IsFEC() {
		return
	}
	st := o.subs[pkt.PayloadType]
	if st == nil {
		st = &oracleSub{encoder: EncoderFrameRate{clockRate: o.clockRate}}
		st.assembler.OnFrame = func(f *Frame, complete bool) { o.onFrame(st, *f, complete) }
		o.subs[pkt.PayloadType] = st
	}
	st.assembler.Observe(Nanos(t), media, pkt)
}

func (o *seriesOracle) onFrame(st *oracleSub, f Frame, complete bool) {
	o.FramesTotal++
	o.frameObs = append(o.frameObs, FrameObservation{At: f.Completed, TS: f.RTPTimestamp})
	if !complete {
		o.FramesIncomplete++
	}
	o.FrameSize.Add(f.Completed, float64(f.Bytes))
	o.FrameDelay.Add(f.Completed, float64(f.Delay())/float64(time.Millisecond))
	o.FrameRate.Add(f.Completed, float64(st.window.Add(f.Completed)))
	if o.clockRate > 0 {
		if fps, pt, ok := st.encoder.Observe(f.RTPTimestamp); ok {
			o.EncoderRate.Add(f.Completed, fps)
			o.Packetization.Add(f.Completed, float64(pt)/float64(time.Millisecond))
		}
	}
}

// Finish flushes the substreams in payload-type order.
func (o *seriesOracle) Finish() {
	pts := make([]uint8, 0, len(o.subs))
	for pt := range o.subs {
		pts = append(pts, pt)
	}
	slices.Sort(pts)
	for _, pt := range pts {
		o.subs[pt].assembler.Flush()
	}
}

// estimateRetransmissions is EstimateRetransmissions as it read the
// stored delay series.
func (o *seriesOracle) estimateRetransmissions(rtt time.Duration) RetxFrameEstimate {
	var est RetxFrameEstimate
	rttMS := float64(rtt) / float64(time.Millisecond)
	strongMS := rttMS + float64(RetxTimeout)/float64(time.Millisecond)
	for _, d := range all(o.FrameDelay.Samples) {
		if d.Value == 0 {
			continue
		}
		est.FramesAnalyzed++
		if d.Value > rttMS {
			est.SuspectedRetxFrames++
		}
		if d.Value > strongMS {
			est.StrongRetxFrames++
		}
	}
	if est.FramesAnalyzed > 0 {
		est.SuspectedRate = float64(est.SuspectedRetxFrames) / float64(est.FramesAnalyzed)
	}
	return est
}

// logPacket is one packet of a generated stream.
type logPacket struct {
	at    time.Time
	media zoom.MediaEncap
	pkt   rtp.Packet
}

// against feeds packets to a fresh stream and a fresh oracle, calling
// Finish on both after the packets at the positions in finishAt and at
// the end, and holds every view of the log against the oracle's stored
// series each time.
func against(t *testing.T, mt zoom.MediaType, packets []logPacket, finishAt ...int) *StreamMetrics {
	t.Helper()
	sm, o := NewStreamMetrics(mt), newSeriesOracle(mt)
	check := func(when string) {
		t.Helper()
		for _, v := range []struct {
			name      string
			got, want []Sample
		}{
			{"FrameRate", all(sm.FrameRate().Samples), all(o.FrameRate.Samples)},
			{"EncoderRate", all(sm.EncoderRate().Samples), all(o.EncoderRate.Samples)},
			{"FrameSize", all(sm.FrameSize().Samples), all(o.FrameSize.Samples)},
			{"FrameDelay", all(frameDelay(sm).Samples), all(o.FrameDelay.Samples)},
			{"Packetization", all(packetizationMS(sm).Samples), all(o.Packetization.Samples)},
		} {
			if !slices.Equal(v.got, v.want) {
				t.Fatalf("%s: %s has %d samples, the oracle %d; first difference at %d", when, v.name, len(v.got), len(v.want), firstDiff(v.got, v.want))
			}
		}
		got := make([]FrameObservation, sm.Frames().Len())
		for i, f := range all(*sm.Frames()) {
			got[i] = FrameObservation{At: f.At, TS: f.TS}
		}
		if !slices.Equal(got, o.frameObs) {
			t.Fatalf("%s: the frame log's (At, TS) pairs are %d, the oracle's %d", when, len(got), len(o.frameObs))
		}
		if sm.FramesTotal() != o.FramesTotal || incomplete(sm) != o.FramesIncomplete {
			t.Fatalf("%s: frames %d (%d incomplete), the oracle %d (%d)", when, sm.FramesTotal(), incomplete(sm), o.FramesTotal, o.FramesIncomplete)
		}
		for _, rtt := range []time.Duration{time.Millisecond, 30 * time.Millisecond} {
			if got, want := sm.EstimateRetransmissions(rtt), o.estimateRetransmissions(rtt); got != want {
				t.Fatalf("%s: EstimateRetransmissions(%v) = %+v, the oracle %+v", when, rtt, got, want)
			}
		}
		gotClock, gotOK := sm.InferClockRate()
		wantClock, wantOK := InferClockRate(o.frameObs)
		if gotClock != wantClock || gotOK != wantOK {
			t.Fatalf("%s: clock sweep %+v %v, the oracle %+v %v", when, gotClock, gotOK, wantClock, wantOK)
		}
	}
	finish := func(when string) {
		sm.Finish()
		o.Finish()
		check(when)
	}
	for i := range packets {
		p := &packets[i]
		sm.Observe(p.at, len(p.pkt.Payload)+70, &p.media, &p.pkt)
		o.Observe(p.at, &p.media, &p.pkt)
		if slices.Contains(finishAt, i) {
			check(fmt.Sprintf("before Finish at packet %d", i))
			finish(fmt.Sprintf("Finish at packet %d", i))
		}
	}
	finish("Finish at the end")
	return sm
}

// all copies a log out, for comparing it whole.
func all[T any](l statecodec.Log[T]) []T {
	out := make([]T, l.Len())
	for i := range out {
		out[i] = *l.At(i)
	}
	return out
}

// incomplete counts the frames the log holds as flushed incomplete.
func incomplete(sm *StreamMetrics) uint64 {
	var n uint64
	for _, f := range all(*sm.Frames()) {
		if !f.Complete {
			n++
		}
	}
	return n
}

func firstDiff(a, b []Sample) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// generateStream builds a stream of mt from seed: frames of one to six
// packets arriving at the pace of their RTP timestamps (video announces
// the count, screen share marks the last packet, audio does neither and
// hops between its three payload types), RTP timestamps and sequence
// numbers that wrap, and for video an FEC substream alongside. An
// impaired stream also has a share of its packets lost (so frames stay
// open until more than 64 are and the oldest is flushed incomplete),
// held back past later frames, or sent again under the same sequence
// number after their frame finished.
func generateStream(mt zoom.MediaType, seed int64, frames int, impaired bool) []logPacket {
	rng := rand.New(rand.NewSource(seed))
	var out []logPacket
	at := t0
	ts := uint32(1<<32 - 40*3000) // wraps after 40 frames
	seq := uint16(65500)          // wraps too
	fecSeq := uint16(10)
	audioPTs := []uint8{zoom.PTAudioSilent, zoom.PTAudioSpeak, zoom.PTAudioMobile}
	for f := 0; f < frames; f++ {
		step := uint32(3000)
		if rng.Intn(10) == 0 {
			step = uint32(1500 * (1 + rng.Intn(6))) // the encoder changed rate
		}
		ts += step
		// Arrivals follow the 90 kHz media clock, give or take 4 ms, except
		// through a congested stretch that drains the stall model's buffer.
		at = at.Add(time.Duration(step)*time.Second/90000 + time.Duration(rng.Intn(8001)-4000)*time.Microsecond)
		if f >= 60 && f < 75 {
			at = at.Add(70 * time.Millisecond)
		}
		n, pt := 1+rng.Intn(6), zoom.PTVideoMain
		switch mt {
		case zoom.TypeAudio:
			n, pt = 1, audioPTs[(f/7)%3]
		case zoom.TypeScreenShare:
			pt = zoom.PTScreenShare
		}
		lossy := f > frames/2 && f < frames/2+80 // a lossy stretch: over 64 frames left open
		for i := 0; i < n; i++ {
			p := logPacket{
				at:    at.Add(time.Duration(i) * 300 * time.Microsecond),
				media: zoom.MediaEncap{Type: mt, Timestamp: ts},
				pkt: rtp.Packet{
					Header:  rtp.Header{PayloadType: pt, SequenceNumber: seq, Timestamp: ts, SSRC: 7, Marker: mt == zoom.TypeScreenShare && i == n-1},
					Payload: make([]byte, 40+rng.Intn(1100)),
				},
			}
			if mt == zoom.TypeVideo {
				p.media.PacketsInFrame = uint8(n)
				p.media.FrameSequence = uint16(f)
			}
			seq++
			switch {
			case !impaired:
			case lossy && n > 1 && i == 0 && mt == zoom.TypeVideo:
				continue // lost: the frame never completes
			case rng.Intn(12) == 0:
				p.at = p.at.Add(time.Duration(40+rng.Intn(200)) * time.Millisecond) // retransmitted: lands among later frames
			}
			out = append(out, p)
			if impaired && rng.Intn(25) == 0 {
				again := p
				again.at = p.at.Add(150 * time.Millisecond) // the same sequence number again
				out = append(out, again)
			}
		}
		if mt == zoom.TypeVideo && f%4 == 0 {
			out = append(out, logPacket{
				at:    at.Add(2 * time.Millisecond),
				media: zoom.MediaEncap{Type: mt, Timestamp: ts},
				pkt:   rtp.Packet{Header: rtp.Header{PayloadType: zoom.PTFEC, SequenceNumber: fecSeq, Timestamp: ts, SSRC: 7}, Payload: make([]byte, 200)},
			})
			fecSeq++
		}
	}
	slices.SortStableFunc(out, func(a, b logPacket) int { return a.at.Compare(b.at) })
	return out
}

// TestFrameLogAgainstSeries: every view of the frame log equals, element
// for element, the series the oracle stored, and so do the counters and
// everything computed from the log — before a Finish, after one, after
// packets that follow a Finish, and after a checkpoint round trip.
func TestFrameLogAgainstSeries(t *testing.T) {
	for _, mt := range []zoom.MediaType{zoom.TypeVideo, zoom.TypeAudio, zoom.TypeScreenShare} {
		for seed := int64(1); seed <= 24; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", mt, seed), func(t *testing.T) {
				// An unimpaired stream is what the clock sweep accepts.
				clean := against(t, mt, generateStream(mt, seed, 400, false))
				if est, ok := clean.InferClockRate(); !ok || est.ClockRate != 90000 {
					t.Errorf("clock sweep over the unimpaired stream: %+v, %v", est, ok)
				}

				packets := generateStream(mt, seed, 400, true)
				sm := against(t, mt, packets, len(packets)/3)
				if mt == zoom.TypeVideo && (incomplete(sm) == 0 || sm.EncoderRate().Samples.Len() == 0) {
					t.Errorf("the impaired stream has %d incomplete frames, %d encoder-rate samples: want some of each",
						incomplete(sm), sm.EncoderRate().Samples.Len())
				}

				full := streamRecord(sm)
				restored := new(StreamMetrics)
				if err := applyStream(restored, full); err != nil {
					t.Fatalf("full record onto a fresh stream: %v", err)
				}
				if !slices.Equal(all(*restored.Frames()), all(*sm.Frames())) {
					t.Error("restored frame log differs")
				}
				if again := streamRecord(restored); !bytes.Equal(again, full) {
					t.Errorf("full → fresh → full differs (%d vs %d bytes)", len(again), len(full))
				}
			})
		}
	}
}

// TestFrameLogHostileClock: a capture clock that stands still, or jumps
// across all of representable time inside one frame, stores the window
// occupancy and the delay the oracle computes.
func TestFrameLogHostileClock(t *testing.T) {
	t.Run("100k frames at one instant", func(t *testing.T) {
		packets := make([]logPacket, 100_000)
		for i := range packets {
			ts := uint32(i) * 320
			packets[i] = logPacket{at: t0, media: zoom.MediaEncap{Type: zoom.TypeAudio, Timestamp: ts},
				pkt: rtp.Packet{Header: rtp.Header{PayloadType: zoom.PTAudioSpeak, SequenceNumber: uint16(i), Timestamp: ts, SSRC: 7, Marker: true}, Payload: make([]byte, 40)}}
		}
		sm := against(t, zoom.TypeAudio, packets)
		if last := sm.Frames().At(sm.Frames().Len() - 1); last.Rate != 100_000 {
			t.Errorf("last frame's window holds %d frames, want 100000", last.Rate)
		}
	})
	t.Run("delay past what nanoseconds hold", func(t *testing.T) {
		var packets []logPacket
		for i, at := range []time.Time{{}, time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)} {
			packets = append(packets, logPacket{at: at, media: zoom.MediaEncap{Type: zoom.TypeVideo, Timestamp: 9000, PacketsInFrame: 2},
				pkt: rtp.Packet{Header: rtp.Header{PayloadType: zoom.PTVideoMain, SequenceNumber: uint16(i), Timestamp: 9000, SSRC: 7}, Payload: make([]byte, 100)}})
		}
		sm := against(t, zoom.TypeVideo, packets)
		if sm.Frames().Len() != 1 || !sm.Frames().At(0).Complete {
			t.Fatalf("frames = %+v, want one complete frame", all(*sm.Frames()))
		}
	})
}

// TestFinishFlushesInPayloadTypeOrder is the regression test for Finish
// flushing substreams in map order: one open marker-less frame in each
// of Zoom audio's three payload types must reach the log in ascending
// payload type, every time.
func TestFinishFlushesInPayloadTypeOrder(t *testing.T) {
	for rep := 0; rep < 200; rep++ {
		sm := NewStreamMetrics(zoom.TypeAudio)
		for i, pt := range []uint8{zoom.PTAudioMobile, zoom.PTAudioSilent, zoom.PTAudioSpeak} {
			media := zoom.MediaEncap{Type: zoom.TypeAudio, Timestamp: 1000}
			pkt := rtp.Packet{Header: rtp.Header{PayloadType: pt, SequenceNumber: uint16(i), Timestamp: 1000, SSRC: 7}, Payload: make([]byte, 10*int(pt))}
			sm.Observe(t0.Add(time.Duration(i)*time.Millisecond), 100, &media, &pkt)
		}
		sm.Finish()
		if got, want := sm.FrameSize().Values(), []float64{990, 1120, 1130}; !slices.Equal(got, want) {
			t.Fatalf("repetition %d: open frames flushed as %v, want %v", rep, got, want)
		}
	}
}

// TestFrameRecordSize pins the log's cost per finished frame and prints
// it for `make loc`.
func TestFrameRecordSize(t *testing.T) {
	size := unsafe.Sizeof(FrameRecord{})
	t.Logf("bytes per finished frame: %d", size)
	if size > 40 {
		t.Errorf("FrameRecord is %d bytes, want at most 40", size)
	}
	rt := reflect.TypeOf(FrameRecord{})
	for i := 0; i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Uint32, reflect.Int64:
		default:
			t.Errorf("FrameRecord.%s is a %s: the log holds fixed-size scalars only, no pointer", f.Name, f.Type.Kind())
		}
	}
}

func streamRecord(sm *StreamMetrics) []byte {
	var w statecodec.Writer
	sm.Code(statecodec.NewEncoder(&w, true))
	return bytes.Clone(w.Bytes())
}

func applyStream(sm *StreamMetrics, rec []byte) error {
	r := statecodec.NewReader(rec)
	sm.Code(statecodec.NewDecoder(r))
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return errors.New("trailing bytes")
	}
	return nil
}

// TestFrameLogCodeRejectsCorrupt writes the frame log by hand, in the
// layout Code walks — the log is the tail of a stream record — and
// checks that the true one is what Code wrote and restores, while each
// malformed one is refused.
func TestFrameLogCodeRejectsCorrupt(t *testing.T) {
	log := func(count int, frames ...FrameRecord) []byte {
		var w statecodec.Writer
		w.Int(count)
		for _, f := range frames {
			w.I64(f.At)
			w.I64(f.Delay)
			w.U32(f.TS)
			w.U32(f.Bytes)
			w.U32(f.Rate)
			w.U32(f.DeltaTS)
			w.U8(f.PT)
			w.Bool(f.Complete)
		}
		return bytes.Clone(w.Bytes())
	}
	for _, mt := range []zoom.MediaType{zoom.TypeVideo, zoom.TypeAudio} {
		sm := against(t, mt, generateStream(mt, 1, 30, true))
		frames := all(*sm.Frames())
		full, tail := streamRecord(sm), log(len(frames), frames...)
		if !bytes.HasSuffix(full, tail) {
			t.Fatalf("%s: the record does not end in the frame log as written by hand", mt)
		}
		head := full[:len(full)-len(tail)]
		with := func(count int, edit func(f *FrameRecord)) []byte {
			edited := slices.Clone(frames)
			edit(&edited[len(edited)/2])
			return slices.Concat(head, log(count, edited...))
		}
		for _, tc := range []struct {
			name, want string
			rec        []byte
		}{
			{"unmodified", "", with(len(frames), func(*FrameRecord) {})},
			{"another timestamp", "", with(len(frames), func(f *FrameRecord) { f.TS++ })},
			{"count past the buffer", "count", with(len(frames)*100, func(*FrameRecord) {})},
			{"negative count", "count", with(-1, func(*FrameRecord) {})},
			{"one frame short", "truncated", with(len(frames)+1, func(*FrameRecord) {})},
			{"payload type with no substream", "no substream", with(len(frames), func(f *FrameRecord) { f.PT = 77 })},
		} {
			err := applyStream(new(StreamMetrics), tc.rec)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s, %s: %v", mt, tc.name, err)
			case tc.want != "" && (!errors.Is(err, statecodec.ErrCorrupt) || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s, %s: err = %v, want ErrCorrupt (%s)", mt, tc.name, err, tc.want)
			}
		}
		// ΔRTP is an answer of the stream's clock: a stream without one
		// cannot have logged it.
		err := applyStream(new(StreamMetrics), with(len(frames), func(f *FrameRecord) { f.DeltaTS = 3000 }))
		if clockless := mt != zoom.TypeVideo; clockless != (errors.Is(err, statecodec.ErrCorrupt) && strings.Contains(err.Error(), "no clock")) {
			t.Errorf("%s: ΔRTP in the log: err = %v", mt, err)
		}
	}
}
