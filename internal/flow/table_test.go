package flow

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/zoom"
)

// coder is either table; record and apply are one checkpoint pass each way.
type coder interface {
	Code(c *statecodec.Codec, stream func(*StreamStats, int))
	MarkCheckpointed()
}

func record(t coder, full bool) []byte {
	var w statecodec.Writer
	t.Code(statecodec.NewEncoder(&w, full), nil)
	t.MarkCheckpointed()
	return bytes.Clone(w.Bytes())
}

func apply(t coder, rec []byte) error {
	r := statecodec.NewReader(rec)
	t.Code(statecodec.NewDecoder(r), nil)
	if r.Err() == nil && r.Remaining() != 0 {
		return fmt.Errorf("%d trailing bytes", r.Remaining())
	}
	t.MarkCheckpointed()
	return r.Err()
}

// TestEvictIdleKeepsFlowOfLiveStream pins the eviction rule under a
// backward capture clock: the flow's LastSeen is its latest packet's time,
// which stream B's packet sets back behind stream A's, and a cutoff
// between the two used to evict the flow from under A.
func TestEvictIdleKeepsFlowOfLiveStream(t *testing.T) {
	tbl := NewTable()
	tbl.Observe(mediaRecord(ftA, t0.Add(100*time.Second), zoom.TypeVideo, zoom.PTVideoMain, 1, 1, 100, 900))
	tbl.Observe(mediaRecord(ftA, t0.Add(50*time.Second), zoom.TypeAudio, zoom.PTAudioSpeak, 2, 1, 100, 100))
	if flows, streams := tbl.EvictIdle(t0.Add(70 * time.Second)); flows != 0 || streams != 1 {
		t.Errorf("evicted %d flows and %d streams, want the idle stream alone", flows, streams)
	}
	if got := tbl.Totals(); got.Flows != 1 || got.Streams != 1 {
		t.Errorf("totals after the pass = %+v, want the flow and its live stream", got)
	}
	if _, ok := tbl.Stream(MediaStreamID{Flow: ftA, Key: zoom.StreamKey{SSRC: 1, Type: zoom.TypeVideo}}); !ok {
		t.Error("the live stream is gone")
	}
	// Once the stream is idle too the flow goes with it.
	if flows, streams := tbl.EvictIdle(t0.Add(100 * time.Second)); flows != 1 || streams != 1 {
		t.Errorf("second pass evicted %d flows and %d streams, want 1 and 1", flows, streams)
	}
}

func dumpShares(enc []EncapTypeShare, pt []PayloadTypeShare) string {
	// Both are sorted by packet count alone; order ties by key.
	slices.SortFunc(enc, func(a, b EncapTypeShare) int { return int(a.Type) - int(b.Type) })
	slices.SortFunc(pt, func(a, b PayloadTypeShare) int {
		return ptKeyKey.Compare(ptKey{a.Media, a.PayloadType}, ptKey{b.Media, b.PayloadType})
	})
	return fmt.Sprintf("%+v\n%+v\n", enc, pt)
}

func dumpTable(t *Table) string {
	var b strings.Builder
	for _, f := range t.Flows() {
		fmt.Fprintf(&b, "flow %v %v %v %d %d %d %d %v\n", f.Flow, f.FirstSeen, f.LastSeen, f.Packets, f.WireBytes, f.ServerBased, f.P2P, f.ByEncapType)
	}
	for _, s := range t.Streams() {
		fmt.Fprintf(&b, "stream %v %v %v %d %d %v\n", s.ID, s.FirstSeen, s.LastSeen, s.Packets, s.WireBytes, s.Substreams)
	}
	tot := t.Totals()
	fmt.Fprintf(&b, "%+v %+v\n", tot, t.Evictions())
	b.WriteString(dumpShares(t.EncapShares(tot.Packets, tot.Bytes), t.PayloadTypeShares(tot.Packets, tot.Bytes)))
	return b.String()
}

func dumpOracle(t *oracleTable) string {
	var b strings.Builder
	for _, f := range t.Flows() {
		var enc []EncapCount
		for mt, n := range f.ByEncapType {
			enc = append(enc, EncapCount{mt, n})
		}
		slices.SortFunc(enc, func(a, b EncapCount) int { return int(a.Type) - int(b.Type) })
		fmt.Fprintf(&b, "flow %v %v %v %d %d %d %d %v\n", f.Flow, f.FirstSeen, f.LastSeen, f.Packets, f.WireBytes, f.ServerBased, f.P2P, enc)
	}
	for _, s := range t.Streams() {
		var subs []SubstreamStats
		for _, sub := range s.Substreams {
			subs = append(subs, SubstreamStats(*sub))
		}
		slices.SortFunc(subs, func(a, b SubstreamStats) int { return int(a.PayloadType) - int(b.PayloadType) })
		fmt.Fprintf(&b, "stream %v %v %v %d %d %v\n", s.ID, s.FirstSeen, s.LastSeen, s.Packets, s.WireBytes, subs)
	}
	tot := t.Totals()
	fmt.Fprintf(&b, "%+v %+v\n", tot, t.Evictions())
	b.WriteString(dumpShares(t.EncapShares(tot.Packets, tot.Bytes), t.PayloadTypeShares(tot.Packets, tot.Bytes)))
	return b.String()
}

// TestTableAgainstTwoMapOracle holds the table to the one it replaced
// (oracle_test.go) over seeded runs of everything the table does: media on
// flows carrying several streams, RTCP sender reports for known and
// unknown SSRCs, the flow, stream and substream caps, idle eviction, a
// full record and a chain of deltas (applied to a replica as they are
// written), and the union of two tables that overlap in flows and streams.
// What the two report and the bytes they checkpoint to must be equal
// throughout. The capture clock only moves forward here: under a backward
// one the two differ by design (TestEvictIdleKeepsFlowOfLiveStream).
func TestTableAgainstTwoMapOracle(t *testing.T) {
	limits := []Limits{{}, {MaxFlows: 5}, {MaxStreams: 9}, {MaxSubstreams: 2}, {MaxFlows: 7, MaxStreams: 20, MaxSubstreams: 3}}
	mediaTypes := []zoom.MediaType{zoom.TypeVideo, zoom.TypeAudio, zoom.TypeScreenShare}
	payloadTypes := []uint8{zoom.PTVideoMain, zoom.PTFEC, zoom.PTAudioSpeak, 112, 0, 127}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lim := limits[seed%int64(len(limits))]
		// Two of each: records go to either, so the pair overlaps.
		var tbl [2]*Table
		var ora [2]*oracleTable
		for i := range tbl {
			tbl[i], ora[i] = NewTable(), newOracleTable()
			tbl[i].SetLimits(lim)
			ora[i].SetLimits(lim)
		}
		replica := NewTable()
		replica.SetLimits(lim)
		now, chained := t0, false
		for step := 0; step < 3000; step++ {
			now = now.Add(time.Duration(1+rng.Intn(40)) * time.Millisecond)
			ft := ftA
			ft.SrcPort = uint16(52000 + rng.Intn(10))
			ssrc := uint32(1 + rng.Intn(5))
			var r *Record
			switch k := rng.Intn(20); {
			case k < 17:
				r = mediaRecord(ft, now, mediaTypes[rng.Intn(3)], payloadTypes[rng.Intn(len(payloadTypes))], ssrc, uint16(step), uint32(step*90), 100+rng.Intn(900))
				r.Z.ServerBased = rng.Intn(4) > 0
			case k < 19:
				r = rtcpRecord(ft, now, ssrc+uint32(rng.Intn(2))*100) // half of them for an SSRC nobody sends
			default:
				r = rtcpRecord(ft, now, ssrc)
				r.Z.Media.Type, r.Z.RTCP.SenderReports = zoom.TypeRTCPSRSDES, nil
			}
			r.Proto = uint8(rng.Intn(8) / 7)
			which := rng.Intn(4) / 3 // three records in four reach the first pair
			got, want := tbl[which].Observe(r), ora[which].Observe(r)
			if (got == nil) != (want == nil) || got != nil && (got.ID != want.ID || got.Packets != want.Packets || got.WireBytes != want.WireBytes || !got.LastSeen.Equal(want.LastSeen)) {
				t.Fatalf("seed %d step %d: Observe returned %+v, the oracle %+v", seed, step, got, want)
			}
			if got, want := tbl[which].Totals(), ora[which].Totals(); got != want {
				t.Fatalf("seed %d step %d: totals %+v, the oracle's %+v", seed, step, got, want)
			}
			if step%400 == 399 {
				cutoff := now.Add(-time.Duration(500+rng.Intn(2000)) * time.Millisecond)
				gf, gs := tbl[0].EvictIdle(cutoff)
				wf, ws := ora[0].EvictIdle(cutoff)
				if gf != wf || gs != ws {
					t.Fatalf("seed %d step %d: evicted %d flows %d streams, the oracle %d and %d", seed, step, gf, gs, wf, ws)
				}
			}
			if step%700 == 699 {
				got, want := record(tbl[0], !chained), record(ora[0], !chained)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: record (full=%v) of %d bytes, the oracle's %d, differ", seed, step, !chained, len(got), len(want))
				}
				if err := apply(replica, got); err != nil {
					t.Fatalf("seed %d step %d: applying the record: %v", seed, step, err)
				}
				chained = true
			}
		}
		check := func(stage string) {
			t.Helper()
			if got, want := dumpTable(tbl[0]), dumpOracle(ora[0]); got != want {
				t.Fatalf("seed %d %s: tables differ\n got:\n%s\nwant:\n%s", seed, stage, got, want)
			}
		}
		check("after the run")
		got, want := record(tbl[0], false), record(ora[0], false)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: last delta of %d bytes, the oracle's %d, differ", seed, len(got), len(want))
		}
		if err := apply(replica, got); err != nil {
			t.Fatalf("seed %d: applying the last delta: %v", seed, err)
		}
		full := record(tbl[0], true)
		if !bytes.Equal(full, record(ora[0], true)) {
			t.Fatalf("seed %d: full records differ", seed)
		}
		if !bytes.Equal(full, record(replica, true)) || dumpTable(replica) != dumpTable(tbl[0]) {
			t.Fatalf("seed %d: the replica built from the chain differs from the table", seed)
		}
		tbl[0].Absorb(tbl[1])
		ora[0].Absorb(ora[1])
		check("after Absorb")
		if !bytes.Equal(record(tbl[0], true), record(ora[0], true)) {
			t.Fatalf("seed %d: full records differ after Absorb", seed)
		}
	}
}

// TestDeltaEncodeKeepsRecreatedRecords: a flow and stream evicted and seen
// again since the last checkpoint are live, and writing the delta that
// carries their tombstones must not take them out of the table that is
// writing (it did: Tombstones handed the keys to the delete callback in
// both directions; the oracle comparison found it, the oracle keeping
// streams whose flow an encode had just deleted).
func TestDeltaEncodeKeepsRecreatedRecords(t *testing.T) {
	tbl, replica := NewTable(), NewTable()
	tbl.Observe(mediaRecord(ftA, t0, zoom.TypeVideo, zoom.PTVideoMain, 1, 1, 100, 900))
	if err := apply(replica, record(tbl, true)); err != nil {
		t.Fatal(err)
	}
	tbl.EvictIdle(t0.Add(time.Second))
	tbl.Observe(mediaRecord(ftA, t0.Add(2*time.Second), zoom.TypeVideo, zoom.PTVideoMain, 1, 2, 200, 900))
	delta := record(tbl, false)
	if got := tbl.Totals(); got.Flows != 1 || got.Streams != 1 {
		t.Errorf("after writing the delta the table holds %+v, want the flow and stream that came back", got)
	}
	if err := apply(replica, delta); err != nil {
		t.Fatal(err)
	}
	if got, want := dumpTable(replica), dumpTable(tbl); got != want {
		t.Errorf("replica differs from the table\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestStreamWalkRidesTheRecord: what a driver keeps per stream (here a
// number behind Owner) is written inside the stream's record, so a delta
// carries it exactly for the streams the table lists, and a decoding pass
// hands the walk each decoded record with the Owner it already had — none
// on a record the pass creates. Absorb keeps every Owner.
func TestStreamWalkRidesTheRecord(t *testing.T) {
	walk := func(c *statecodec.Codec, seen *[]uint64) func(*StreamStats, int) {
		return func(s *StreamStats, _ int) {
			var v uint64
			if n, ok := s.Owner.(*uint64); ok {
				v = *n
			}
			if c.U64(&v); !c.Encoding() {
				*seen = append(*seen, v)
				if s.Owner == nil {
					s.Owner = new(uint64)
				}
				*s.Owner.(*uint64) = v
			}
		}
	}
	pass := func(tbl *Table, full bool) []byte {
		var w statecodec.Writer
		c := statecodec.NewEncoder(&w, full)
		tbl.Code(c, walk(c, nil))
		tbl.MarkCheckpointed()
		return bytes.Clone(w.Bytes())
	}
	load := func(tbl *Table, rec []byte) (held []any, seen []uint64) {
		for _, s := range tbl.Streams() {
			held = append(held, s.Owner)
		}
		r := statecodec.NewReader(rec)
		c := statecodec.NewDecoder(r)
		tbl.Code(c, walk(c, &seen))
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("decode: %v, %d bytes left", r.Err(), r.Remaining())
		}
		tbl.MarkCheckpointed()
		return held, seen
	}
	owned := func(v uint64) *uint64 { return &v }

	tbl, replica := NewTable(), NewTable()
	tbl.Observe(mediaRecord(ftA, t0, zoom.TypeVideo, zoom.PTVideoMain, 1, 1, 100, 900)).Owner = owned(11)
	tbl.Observe(mediaRecord(ftA, t0, zoom.TypeVideo, zoom.PTVideoMain, 2, 1, 100, 900)).Owner = owned(12)
	if _, seen := load(replica, pass(tbl, true)); !slices.Equal(seen, []uint64{11, 12}) {
		t.Fatalf("full record carried %v, want both streams' 11 and 12", seen)
	}
	kept, _ := replica.Stream(MediaStreamID{Flow: ftA, Key: zoom.StreamKey{SSRC: 1, Type: zoom.TypeVideo}})
	held := kept.Owner

	// Only SSRC 1 and a new SSRC 3 are touched: the delta carries those two.
	st := tbl.Observe(mediaRecord(ftA, t0.Add(time.Second), zoom.TypeVideo, zoom.PTVideoMain, 1, 2, 200, 900))
	*st.Owner.(*uint64) = 21
	tbl.Observe(mediaRecord(ftA, t0.Add(time.Second), zoom.TypeVideo, zoom.PTVideoMain, 3, 1, 100, 900)).Owner = owned(13)
	_, seen := load(replica, pass(tbl, false))
	if !slices.Equal(seen, []uint64{21, 13}) {
		t.Fatalf("delta carried %v, want SSRC 1's 21 and SSRC 3's 13", seen)
	}
	if kept.Owner != held || *held.(*uint64) != 21 {
		t.Errorf("the updated record's Owner is %v, want the one it held before the pass, now 21", kept.Owner)
	}

	dst := NewTable()
	dst.Absorb(replica)
	for _, s := range dst.Streams() {
		if s.Owner == nil {
			t.Errorf("stream %v lost its Owner in Absorb", s.ID.Key)
		}
	}
}

// TestTableCodeRejectsCorrupt writes table records by hand, in the layout
// Code documents, to reach what an encoder never produces: a stream whose
// flow the record does not hold, and encapsulation or payload types out of
// order or repeated.
func TestTableCodeRejectsCorrupt(t *testing.T) {
	type stream struct {
		ft  layers.FiveTuple
		pts []uint8
	}
	rec := func(flows []layers.FiveTuple, encap []zoom.MediaType, streams []stream) []byte {
		var w statecodec.Writer
		c := statecodec.NewEncoder(&w, true)
		for range 7 { // totals and eviction counters
			w.U64(0)
		}
		w.Int(0) // no tombstones
		w.Int(0)
		w.Int(len(flows))
		for _, ft := range flows {
			ft.Code(c)
			w.Time(t0)
			w.Time(t0)
			for range 4 {
				w.U64(1)
			}
			w.Int(len(encap))
			for _, mt := range encap {
				w.U64(uint64(mt))
				w.U64(1)
			}
		}
		w.Int(len(streams))
		for _, s := range streams {
			id := MediaStreamID{Flow: s.ft, Key: zoom.StreamKey{SSRC: 7, Type: zoom.TypeVideo}}
			id.Code(c)
			w.Time(t0)
			w.Time(t0)
			for range 2 { // packets and wire bytes
				w.U64(1)
			}
			w.Int(len(s.pts))
			for _, pt := range s.pts {
				w.U64(uint64(pt))
				w.U64(1)
				w.U64(100)
			}
		}
		w.Int(0) // no evicted aggregates
		w.Int(0)
		return bytes.Clone(w.Bytes())
	}
	good := rec([]layers.FiveTuple{ftA}, []zoom.MediaType{zoom.TypeVideo, zoom.TypeRTCPSR}, []stream{{ftA, []uint8{98, 110}}})
	tbl := NewTable()
	if err := apply(tbl, good); err != nil {
		t.Fatalf("well-formed record: %v", err)
	}
	if got := tbl.Totals(); got.Flows != 1 || got.Streams != 1 || !bytes.Equal(record(tbl, true), good) {
		t.Fatalf("well-formed record restored to %+v, re-encoding equal: %v", got, bytes.Equal(record(tbl, true), good))
	}
	for name, c := range map[string]struct {
		rec  []byte
		want string
	}{
		"stream on a flow the record does not hold": {rec([]layers.FiveTuple{ftA}, nil, []stream{{ftB, nil}}), "which the table does not hold"},
		"stream with no flow at all":                {rec(nil, nil, []stream{{ftA, []uint8{98}}}), "which the table does not hold"},
		"payload types out of order":                {rec([]layers.FiveTuple{ftA}, nil, []stream{{ftA, []uint8{110, 98}}}), "not strictly ascending"},
		"payload type repeated":                     {rec([]layers.FiveTuple{ftA}, nil, []stream{{ftA, []uint8{98, 98}}}), "not strictly ascending"},
		"encapsulation types out of order":          {rec([]layers.FiveTuple{ftA}, []zoom.MediaType{zoom.TypeRTCPSR, zoom.TypeVideo}, nil), "not strictly ascending"},
		"encapsulation type repeated":               {rec([]layers.FiveTuple{ftA}, []zoom.MediaType{zoom.TypeVideo, zoom.TypeVideo}, nil), "not strictly ascending"},
	} {
		if err := apply(NewTable(), c.rec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one saying %q", name, err, c.want)
		}
	}
	// A stream record on a flow an earlier record of the chain brought is
	// fine: the refusal is about the table, not the one record.
	if err := apply(tbl, rec(nil, nil, []stream{{ftA, []uint8{98}}})); err != nil {
		t.Errorf("delta naming a flow of the base: %v", err)
	}
}

// wideRecords returns n media records of as many SSRCs on one five-tuple.
func wideRecords(n int) []*Record {
	recs := make([]*Record, n)
	for i := range recs {
		recs[i] = mediaRecord(ftA, t0.Add(time.Duration(i)*time.Microsecond), zoom.TypeVideo, zoom.PTVideoMain, uint32(i), 1, 100, 900)
	}
	return recs
}

// observeNs is the per-record cost of feeding recs to tbl rounds times.
func observeNs(tbl *Table, recs []*Record, rounds int) float64 {
	start := time.Now()
	for range rounds {
		for _, r := range recs {
			tbl.Observe(r)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*len(recs))
}

// TestWideFlow is the hostile sender the per-flow index is a map for:
// 50,000 SSRCs on one five-tuple. A packet of such a flow must cost about
// what a packet of a one-stream flow costs (a list per flow would make it
// O(streams); BenchmarkTableObserveWide records the real ratio, this only
// guards the order of magnitude), and the stream cap must refuse at
// exactly its value however the streams are spread.
func TestWideFlow(t *testing.T) {
	const wide = 50_000
	recs := wideRecords(wide)
	tbl := NewTable()
	observeNs(tbl, recs, 1)
	if got := tbl.Totals(); got.Flows != 1 || got.Streams != wide {
		t.Fatalf("totals = %+v, want one flow of %d streams", got, wide)
	}
	narrow := NewTable()
	one := recs[:1]
	best := func(tbl *Table, recs []*Record, rounds int) float64 {
		ns := observeNs(tbl, recs, rounds)
		for range 4 {
			ns = min(ns, observeNs(tbl, recs, rounds))
		}
		return ns
	}
	wideNs, narrowNs := best(tbl, recs, 2), best(narrow, one, 2*wide)
	t.Logf("Observe: %.0f ns on the %d-stream flow, %.0f ns on a one-stream flow (x%.1f)", wideNs, wide, narrowNs, wideNs/narrowNs)
	// The wide walk misses the cache on every record and stream; the
	// narrow one never does. A linear index would read x1000s.
	if wideNs > 16*narrowNs {
		t.Errorf("a packet of the %d-stream flow costs %.0f ns, %.0fx a one-stream flow's %.0f ns", wide, wideNs, wideNs/narrowNs, narrowNs)
	}

	const limit = 10_000
	capped := NewTable()
	capped.SetLimits(Limits{MaxStreams: limit})
	for _, r := range recs {
		capped.Observe(r)
	}
	other := mediaRecord(ftB, t0, zoom.TypeVideo, zoom.PTVideoMain, 1, 1, 100, 900)
	if capped.Observe(other) != nil {
		t.Error("a new stream on another flow was admitted past the cap")
	}
	if got, ev := capped.Totals(), capped.Evictions(); got.Streams != limit || ev.RejectedStreamPackets != wide-limit+1 {
		t.Errorf("capped table holds %d streams and turned away %d packets, want %d and %d", got.Streams, ev.RejectedStreamPackets, limit, wide-limit+1)
	}
	if _, streams := capped.EvictIdle(t0.Add(time.Hour)); streams != limit {
		t.Errorf("evicted %d streams, want %d", streams, limit)
	}
	if capped.Observe(other) == nil || capped.Totals().Streams != 1 {
		t.Errorf("after eviction the table holds %d streams, want the one new", capped.Totals().Streams)
	}
}

func benchmarkTableObserve(b *testing.B, streams int) {
	recs := wideRecords(streams)
	tbl := NewTable()
	observeNs(tbl, recs, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Observe(recs[i%streams])
	}
}

// BenchmarkTableObserveNarrow and Wide are a packet's cost on a flow of one
// stream and on a flow of 50,000.
func BenchmarkTableObserveNarrow(b *testing.B) { benchmarkTableObserve(b, 1) }
func BenchmarkTableObserveWide(b *testing.B)   { benchmarkTableObserve(b, 50_000) }
