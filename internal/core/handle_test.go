package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/layers"
	"zoomlens/internal/meeting"
	"zoomlens/internal/zoom"
)

func pipelineOf(eng Engine) *pipeline {
	if pa, ok := eng.(*ParallelAnalyzer); ok {
		return pa.pipeline
	}
	return eng.(*Analyzer).pipeline
}

// keyedEngine builds an engine whose shards report every observation
// without the Dedup handle, so its reconciliation consumer finds each
// record by key as it did before there were handles: the reference the
// by-handle engine is held to.
func keyedEngine(cfg Config, workers int) Engine {
	eng := newTestEngine(cfg, workers)
	for _, sh := range pipelineOf(eng).shards {
		sink := sh.sink
		sh.sink = func(o *mediaObs) {
			own := streamOwner{id: o.own.id} // an empty handle: found by key
			c := *o
			c.own = &own
			sink(&c)
		}
	}
	return eng
}

// TestDedupHandleEngineMatchesKeyed runs the seeded campus trace through a
// by-handle engine and a keyed one, inline and queue-fed, with everything
// that ends or replaces a handle's target on the way: idle eviction (a P2P
// switch retires the meeting's SFU streams), a full checkpoint and a delta
// — from which a third engine is restored and fed the rest — and a window
// rotation. Checkpoint bytes, the rotated window and the final report must
// be equal across the three. Under -race the queue-fed rows also hold the
// rule that only the reconciliation goroutine touches a handle.
func TestDedupHandleEngineMatchesKeyed(t *testing.T) {
	tr, opts := seededTrace(t, 30)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
		FlowTTL:        time.Second,
	}
	for _, workers := range []int{1, 2} {
		byHandle, keyed := newTestEngine(cfg, workers), keyedEngine(cfg, workers)
		engines := []Engine{byHandle, keyed}
		n := len(tr.frames)
		var full []byte
		var evicted uint64
		for i := range tr.frames {
			for _, eng := range engines {
				eng.Packet(tr.at[i], tr.frames[i])
			}
			switch i {
			case n / 3:
				full = checkpointBytes(t, byHandle)
				if !bytes.Equal(full, checkpointBytes(t, keyed)) {
					t.Fatalf("workers=%d: full checkpoints differ", workers)
				}
			case n / 2:
				var delta, want bytes.Buffer
				if err := byHandle.CheckpointDelta(&delta); err != nil {
					t.Fatal(err)
				}
				if err := keyed.CheckpointDelta(&want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(delta.Bytes(), want.Bytes()) {
					t.Fatalf("workers=%d: delta checkpoints differ", workers)
				}
				restored, err := RestoreAnalyzer(bytes.NewReader(full), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := restored.ApplyDelta(bytes.NewReader(delta.Bytes())); err != nil {
					t.Fatal(err)
				}
				engines = append(engines, restored)
			case 2 * n / 3:
				var windows [][]byte
				for _, eng := range engines {
					win := eng.Rotate(tr.at[i])
					evicted += win.Flows.Evictions().EvictedStreams
					windows = append(windows, reportBytes(t, win))
				}
				if !bytes.Equal(windows[0], windows[1]) || !bytes.Equal(windows[0], windows[2]) {
					t.Fatalf("workers=%d: rotated windows differ", workers)
				}
			}
		}
		var reports [][]byte
		for _, eng := range engines {
			eng.Finish()
			reports = append(reports, reportBytes(t, eng.Result()))
		}
		if !bytes.Equal(reports[0], reports[1]) || !bytes.Equal(reports[0], reports[2]) {
			t.Errorf("workers=%d: final reports differ (by handle %d bytes, keyed %d, restored %d)", workers, len(reports[0]), len(reports[1]), len(reports[2]))
		}
		if evicted += byHandle.Result().Flows.Evictions().EvictedStreams; evicted == 0 {
			t.Errorf("workers=%d: no stream was evicted in %d packets, so no handle's life ended", workers, n)
		}
	}
}

// handleRig is a sequential engine fed one hand-built audio stream.
type handleRig struct {
	a        *Analyzer
	rng      *rand.Rand
	src, dst netip.AddrPort
	id       flow.MediaStreamID
}

func newHandleRig(cfg Config) *handleRig {
	cfg.ZoomNetworks = []netip.Prefix{netip.MustParsePrefix("52.81.0.0/16")}
	cfg.CampusNetworks = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}
	r := &handleRig{a: NewAnalyzer(cfg), rng: rand.New(rand.NewSource(1)),
		src: netip.MustParseAddrPort("10.8.1.2:52000"), dst: netip.MustParseAddrPort("52.81.3.4:8801")}
	r.id = flow.MediaStreamID{
		Flow: layers.FiveTuple{Src: r.src.Addr(), SrcPort: r.src.Port(), Dst: r.dst.Addr(), DstPort: r.dst.Port(), Proto: layers.ProtoUDP},
		Key:  zoom.StreamKey{SSRC: 7, Type: zoom.TypeAudio},
	}
	return r
}

func (r *handleRig) send(at time.Time, ssrc uint32) {
	r.a.Packet(at, zoomAudioFrame(r.rng, r.src, r.dst, ssrc, zoom.PTAudioSpeak))
}

// owner returns what the shard hangs on the stream's flow-table record.
func (r *handleRig) owner(t *testing.T) *streamOwner {
	t.Helper()
	st, ok := r.a.Flows.Stream(r.id)
	if !ok {
		t.Fatalf("no flow-table record for %v", r.id)
	}
	own, _ := st.Owner.(*streamOwner)
	if own == nil {
		t.Fatalf("stream record carries %T, want a *streamOwner", st.Owner)
	}
	return own
}

// TestDedupHandleLifetime walks one stream through everything that ends a
// handle's life in a sequential engine.
func TestDedupHandleLifetime(t *testing.T) {
	at := time.Date(2022, 5, 5, 9, 0, 0, 0, time.UTC)
	clientOf := func(a *Analyzer) []meeting.StreamRecord { return a.Dedup.RecordsBy(a.clientOf()) }

	t.Run("idle eviction", func(t *testing.T) {
		r := newHandleRig(Config{})
		r.send(at, 7)
		r.send(at.Add(time.Second), 7)
		first := r.owner(t)
		r.a.EvictIdle(at.Add(time.Minute))
		if _, ok := r.a.Flows.Stream(r.id); ok {
			t.Fatal("the stream survived eviction")
		}
		// The same stream returns: a fresh shard record and owner, whose
		// empty handle re-finds the detector's record — not a second one.
		r.send(at.Add(2*time.Minute), 7)
		second := r.owner(t)
		if second == first || second.dedup == (meeting.Handle{}) || second.dedup != first.dedup {
			t.Errorf("returning stream: same owner %v, handle %+v, the first's %+v; want a new owner naming the same record", second == first, second.dedup, first.dedup)
		}
		recs := clientOf(r.a)
		if len(recs) != 1 || recs[0].Unified != 1 || !recs[0].End.Equal(at.Add(2*time.Minute)) {
			t.Errorf("detector records = %+v, want the one record, unified ID 1, extended to the return", recs)
		}
	})

	t.Run("rotate", func(t *testing.T) {
		r := newHandleRig(Config{})
		r.send(at, 9) // takes unified ID 1 in the first window only
		r.send(at, 7)
		old := r.owner(t).dedup
		win := r.a.Rotate(at.Add(time.Second))
		r.send(at.Add(2*time.Second), 7)
		if recs := clientOf(win); len(recs) != 2 || !recs[1].End.Equal(at) {
			t.Errorf("the closed window's records = %+v, want both streams ending at the first packets", recs)
		}
		if recs := clientOf(r.a); len(recs) != 1 || recs[0].Unified != 1 || !recs[0].Start.Equal(at.Add(2*time.Second)) {
			t.Errorf("the new window's records = %+v, want the stream alone, starting over", recs)
		}
		if now := r.owner(t).dedup; now == old || now == (meeting.Handle{}) {
			t.Errorf("handle after rotation %+v, before %+v: want one filled by the new window's detector", now, old)
		}
	})

	t.Run("cluster sink", func(t *testing.T) {
		r := newHandleRig(Config{})
		var got []ClusterObs
		if err := r.a.SetClusterSink(func(o ClusterObs) { got = append(got, o) }); err != nil {
			t.Fatal(err)
		}
		r.send(at, 7)
		r.send(at.Add(time.Second), 7)
		if len(got) != 2 || got[0].Flow != r.id.Flow || got[0].Key != r.id.Key || got[1].Flow != r.id.Flow || got[1].Key != r.id.Key {
			t.Errorf("exported observations %+v, want two naming stream %v by key", got, r.id)
		}
		if r.a.Dedup.Len() != 0 {
			t.Errorf("the worker's own detector holds %d records, want none", r.a.Dedup.Len())
		}
	})
}

// TestEvictIdleKeepsFlowOfLiveStreamEndToEnd is the flow table's
// backward-clock rule through the shard and a checkpoint: stream A at
// t+100 s, then stream B at t+50 s on the same five-tuple, then an
// eviction pass with the cutoff between them. The flow must survive with
// A (it used to go, leaving A on no flow), the full checkpoint must restore
// to the same state, and A must carry on in the restored engine.
func TestEvictIdleKeepsFlowOfLiveStreamEndToEnd(t *testing.T) {
	at := time.Date(2022, 5, 5, 9, 0, 0, 0, time.UTC)
	r := newHandleRig(Config{})
	r.send(at.Add(100*time.Second), 7)
	r.send(at.Add(50*time.Second), 9)
	r.a.EvictIdle(at.Add(70 * time.Second))
	if tot := r.a.Flows.Totals(); tot.Flows != 1 || tot.Streams != 1 || len(r.a.StreamMetrics) != 1 || len(r.a.Finished) != 1 {
		t.Fatalf("after the pass: %+v, %d live metric engines, %d archived; want the flow, its live stream, and the idle one archived", tot, len(r.a.StreamMetrics), len(r.a.Finished))
	}
	full := checkpointBytes(t, r.a)
	eng, err := RestoreAnalyzer(bytes.NewReader(full), r.a.cfg)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	restored := eng.(*Analyzer)
	if again := checkpointBytes(t, restored); !bytes.Equal(again, full) {
		t.Errorf("full → restore → full differs (%d vs %d bytes)", len(again), len(full))
	}
	frame := zoomAudioFrame(r.rng, r.src, r.dst, 7, zoom.PTAudioSpeak)
	for _, a := range []*Analyzer{r.a, restored} {
		a.Packet(at.Add(101*time.Second), frame)
		a.Finish()
	}
	if st, ok := restored.Flows.Stream(r.id); !ok || st.Packets != 2 {
		t.Errorf("stream A in the restored engine: %+v, %v; want it carried on to 2 packets", st, ok)
	}
	if !bytes.Equal(reportBytes(t, restored), reportBytes(t, r.a)) {
		t.Error("restored engine's report differs from the uninterrupted one's")
	}
}

// TestDeltaEncodeKeepsReturningStream: a stream idle-evicted after one
// checkpoint and back before the next is live state, and writing the delta
// that carries its tombstones must leave it in the engine that writes
// (statecodec.Tombstones used to run the delete callback while encoding:
// the flow, the stream and the metric engine that had just come back were
// dropped from the live engine, and so from the record). The run with
// checkpoints, the run without and the engine restored from the chain must
// report the same.
func TestDeltaEncodeKeepsReturningStream(t *testing.T) {
	at := time.Date(2022, 5, 5, 9, 0, 0, 0, time.UTC)
	plain, ckpt := newHandleRig(Config{}), newHandleRig(Config{})
	var full, delta bytes.Buffer
	for _, r := range []*handleRig{plain, ckpt} {
		r.send(at, 7)
		if r == ckpt {
			if err := r.a.Checkpoint(&full); err != nil {
				t.Fatal(err)
			}
		}
		r.a.EvictIdle(at.Add(time.Minute))
		r.send(at.Add(2*time.Minute), 7)
		if r == ckpt {
			if err := r.a.CheckpointDelta(&delta); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tot := ckpt.a.Flows.Totals(); tot.Flows != 1 || tot.Streams != 1 || len(ckpt.a.StreamMetrics) != 1 {
		t.Errorf("after writing the delta: %+v and %d live metric engines, want the stream that came back", tot, len(ckpt.a.StreamMetrics))
	}
	restored, err := RestoreAnalyzer(&full, ckpt.a.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ApplyDelta(&delta); err != nil {
		t.Fatal(err)
	}
	frame := zoomAudioFrame(plain.rng, plain.src, plain.dst, 7, zoom.PTAudioSpeak)
	var reports [][]byte
	for _, eng := range []Engine{plain.a, ckpt.a, restored} {
		eng.Packet(at.Add(3*time.Minute), frame)
		eng.Finish()
		reports = append(reports, reportBytes(t, eng.Result()))
	}
	if !bytes.Equal(reports[0], reports[1]) || !bytes.Equal(reports[0], reports[2]) {
		t.Errorf("reports differ: no checkpoints %d bytes, checkpointed %d, restored %d", len(reports[0]), len(reports[1]), len(reports[2]))
	}
}

// oldSweepVictims is the idle sweep's choice as it was made before the
// sweep walked the flow table: a walk of the metric registry, one
// flow-table lookup per engine, a stream the table no longer holds
// archived at the cutoff, then compareFinished order.
func oldSweepVictims(sh *shard, cutoff time.Time) []FinishedStream {
	var victims []FinishedStream
	for id, sm := range sh.StreamMetrics {
		st, ok := sh.Flows.Stream(id)
		if ok && st.LastSeen.After(cutoff) {
			continue
		}
		last := cutoff
		if ok {
			last = st.LastSeen
		}
		victims = append(victims, FinishedStream{ID: id, LastSeen: last, Metrics: sm})
	}
	slices.SortFunc(victims, compareFinished)
	return victims
}

// checkSweep runs one idle sweep on sh, which must have no archive cap,
// and fails unless it archived exactly what oldSweepVictims chose, in the
// same order, and left none of it live. It returns how many it archived.
func checkSweep(t *testing.T, where string, sh *shard, cutoff time.Time) int {
	t.Helper()
	want := oldSweepVictims(sh, cutoff)
	from := len(sh.Finished)
	sh.EvictIdle(cutoff)
	got := sh.Finished[from:]
	if len(got) != len(want) {
		t.Fatalf("%s: the sweep archived %d streams, the map walk %d", where, len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g.ID != w.ID || !g.LastSeen.Equal(w.LastSeen) || g.Metrics != w.Metrics {
			t.Fatalf("%s: archive entry %d is %v idle since %v, the map walk's %v idle since %v", where, i, g.ID, g.LastSeen, w.ID, w.LastSeen)
		}
		if _, live := sh.StreamMetrics[w.ID]; live {
			t.Fatalf("%s: archived stream %v is still live", where, w.ID)
		}
	}
	return len(got)
}

// TestSweepMatchesMapWalk holds the idle sweep, which finds its victims on
// the flow table's stream records, to the walk of the metric registry it
// replaced: at every sweep the same streams are archived in the same
// order. The sweeps run every 256 packets, inline and queue-fed, through
// a P2P switch that idles the meeting's SFU streams, a full checkpoint
// and a delta from which a restored engine takes over (swept at once,
// while none of its stream records carries an owner), a rotation (whose
// window is the shards' merge) and Finish's merge.
func TestSweepMatchesMapWalk(t *testing.T) {
	tr, opts := seededTrace(t, 30)
	cfg := Config{ZoomNetworks: []netip.Prefix{opts.ZoomNet}, CampusNetworks: []netip.Prefix{opts.CampusNet}}
	const ttl = time.Second
	n := len(tr.frames)
	far := tr.at[n-1].Add(time.Hour)
	for _, workers := range []int{1, 2} {
		eng := newTestEngine(cfg, workers)
		archived := 0
		sweep := func(what string, cutoff time.Time) {
			p := pipelineOf(eng)
			p.quiesce()
			for s, sh := range p.shards {
				archived += checkSweep(t, fmt.Sprintf("workers=%d %s shard %d", workers, what, s), sh, cutoff)
			}
		}
		var full []byte
		for i := range tr.frames {
			eng.Packet(tr.at[i], tr.frames[i])
			if i%256 == 255 {
				sweep(fmt.Sprintf("packet %d", i), tr.at[i].Add(-ttl))
			}
			switch i {
			case n / 3:
				full = checkpointBytes(t, eng)
			case n / 2:
				var delta bytes.Buffer
				if err := eng.CheckpointDelta(&delta); err != nil {
					t.Fatal(err)
				}
				restored, err := RestoreAnalyzer(bytes.NewReader(full), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := restored.ApplyDelta(&delta); err != nil {
					t.Fatal(err)
				}
				Discard(eng)
				eng = restored
				// No stream record of the restored engine has an owner yet:
				// everything not seen on this very packet goes.
				sweep("after restore", tr.at[i])
			case 2 * n / 3:
				win := eng.Rotate(tr.at[i])
				archived += checkSweep(t, fmt.Sprintf("workers=%d rotated window", workers), win.shard, far)
			}
		}
		eng.Finish()
		sweep("after Finish", far)
		if archived == 0 {
			t.Errorf("workers=%d: no sweep archived a stream", workers)
		}
	}
}
