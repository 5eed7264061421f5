package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/layers"
	"zoomlens/internal/meeting"
	"zoomlens/internal/metrics"
	"zoomlens/internal/pcap"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/trace"
	"zoomlens/internal/zoom"
)

// checkpointBytes encodes a full checkpoint and fails the test on error.
func checkpointBytes(t *testing.T, eng Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestDeltaCheckpointDifferential is the incremental-checkpoint
// equivalence gate: full checkpoint at cut1, delta records at cut2 and
// cut3, then a restore-and-replay (full + deltas) must land on state
// whose own full-checkpoint encoding is byte-identical to the live
// engine's — and finishing both must produce identical results, stall
// predictions included (no report prints them) — at one worker and
// sharded.
func TestDeltaCheckpointDifferential(t *testing.T) {
	tr, opts := seededTrace(t, 20, freeze(11*time.Second))
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	n := len(tr.frames)
	if n < 100 {
		t.Fatalf("trace too short: %d packets", n)
	}
	cut1, cut2, cut3 := n/4, n/2, 3*n/4

	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "sequential", 4: "parallel"}[workers], func(t *testing.T) {
			live := newTestEngine(cfg, workers)

			// Before any full checkpoint the chain is unarmed.
			if err := live.CheckpointDelta(io_Discard{}); !errors.Is(err, ErrDeltaUnavailable) {
				t.Fatalf("unarmed CheckpointDelta err = %v, want ErrDeltaUnavailable", err)
			}

			feed := func(eng Engine, from, to int) {
				for i := from; i < to; i++ {
					eng.Packet(tr.at[i], tr.frames[i])
				}
			}

			feed(live, 0, cut1)
			var full bytes.Buffer
			if err := live.Checkpoint(&full); err != nil {
				t.Fatal(err)
			}
			feed(live, cut1, cut2)
			var delta1 bytes.Buffer
			if err := live.CheckpointDelta(&delta1); err != nil {
				t.Fatalf("delta1: %v", err)
			}
			feed(live, cut2, cut3)
			var delta2 bytes.Buffer
			if err := live.CheckpointDelta(&delta2); err != nil {
				t.Fatalf("delta2: %v", err)
			}

			// Restore the full snapshot and roll it forward through the
			// chain.
			resumed, err := RestoreAnalyzer(bytes.NewReader(full.Bytes()), cfg)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if err := resumed.ApplyDelta(bytes.NewReader(delta1.Bytes())); err != nil {
				t.Fatalf("apply delta1: %v", err)
			}
			if err := resumed.ApplyDelta(bytes.NewReader(delta2.Bytes())); err != nil {
				t.Fatalf("apply delta2: %v", err)
			}

			// The rolled-forward state must encode byte-identically to the
			// live engine's (the checkpoint encoding is deterministic and
			// complete, so byte equality is state equality).
			liveCk := checkpointBytes(t, live)
			resumedCk := checkpointBytes(t, resumed)
			if !bytes.Equal(liveCk, resumedCk) {
				t.Fatalf("delta-replayed state encodes differently from live state (lens %d vs %d)",
					len(resumedCk), len(liveCk))
			}

			// And both runs must finish identically on the remaining trace.
			feed(live, cut3, n)
			feed(resumed, cut3, n)
			live.Finish()
			resumed.Finish()
			if !reflect.DeepEqual(live.Result().Summary(), resumed.Result().Summary()) {
				t.Errorf("summaries diverge:\nlive    %+v\nresumed %+v",
					live.Result().Summary(), resumed.Result().Summary())
			}
			if !reflect.DeepEqual(streamIDs(live.Result()), streamIDs(resumed.Result())) {
				t.Error("stream identifier sets diverge")
			}
			stalls := 0
			for _, id := range streamIDs(live.Result()) {
				want, got := live.Result().StreamMetrics[id].Stalls(), resumed.Result().StreamMetrics[id].Stalls()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("stream %v: stalls %+v after the chain, %+v live", id, got, want)
				}
				stalls += len(want)
			}
			if stalls == 0 {
				t.Error("the live run predicts no stall: the comparison checks nothing")
			}
		})
	}
}

// TestDeltaCheckpointChains holds the chains a dirty stream's log tails
// can go wrong on to the same standard as the differential above: after
// every record, full plus deltas so far must re-encode byte-identically
// to the live engine's own full at that point. Three deltas in a row (a
// tail must start where the previous record's ended, not where the full's
// did); a stream that idles out between two deltas (its archive entry
// carries its logs whole, its live record dies by tombstone); and one that
// idles out and is back before the next delta (its new record starts its
// logs from nothing, on a replica that still holds the old one).
func TestDeltaCheckpointChains(t *testing.T) {
	tr, opts := seededTrace(t, 20)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	n := len(tr.frames)

	// The quiet flow is the capture's busiest media five-tuple; a step can
	// withhold its packets so that it idles out while the others go on.
	var dec layers.Parser
	var pkt layers.Packet
	tupleOf := func(i int) (layers.FiveTuple, bool) {
		if dec.Parse(tr.frames[i], &pkt) != nil || !pkt.HasUDP {
			return layers.FiveTuple{}, false
		}
		return pkt.FiveTuple()
	}
	ref := NewAnalyzer(cfg)
	tr.feed(ref.Packet)
	var quiet layers.FiveTuple
	var most uint64
	for id, sm := range ref.StreamMetrics {
		if sm.Packets > most {
			quiet, most = id.Flow, sm.Packets
		}
	}
	feed := func(from, to int, withhold bool) func(*Analyzer) {
		return func(a *Analyzer) {
			for i := from; i < to; i++ {
				if ft, ok := tupleOf(i); withhold && ok && ft == quiet {
					continue
				}
				a.Packet(tr.at[i], tr.frames[i])
			}
		}
	}
	// evict ages out what has been silent for two seconds at frame i: the
	// quiet flow's streams once a quarter of the capture was withheld.
	evict := func(i int) func(*Analyzer) {
		return func(a *Analyzer) { a.EvictIdle(tr.at[i-1].Add(-2 * time.Second)) }
	}
	steps := func(fs ...func(*Analyzer)) func(*Analyzer) {
		return func(a *Analyzer) {
			for _, f := range fs {
				f(a)
			}
		}
	}
	onQuiet := func(a *Analyzer) (live int, archived int) {
		for id := range a.StreamMetrics {
			if id.Flow == quiet {
				live++
			}
		}
		for _, f := range a.Finished {
			if f.ID.Flow == quiet {
				archived++
			}
		}
		return live, archived
	}

	q := n / 5
	for _, tc := range []struct {
		name  string
		chain []func(*Analyzer) // a full after the first step, a delta after each later one
		check func(t *testing.T, replica *Analyzer)
	}{
		{
			name:  "three_deltas",
			chain: []func(*Analyzer){feed(0, q, false), feed(q, 2*q, false), feed(2*q, 3*q, false), feed(3*q, 4*q, false)},
		},
		{
			name:  "evicted_between_deltas",
			chain: []func(*Analyzer){feed(0, q, false), feed(q, 2*q, false), steps(feed(2*q, 4*q, true), evict(4*q))},
			check: func(t *testing.T, replica *Analyzer) {
				if live, archived := onQuiet(replica); live != 0 || archived == 0 {
					t.Errorf("replica holds %d live and %d archived streams of the flow that idled out; want 0 and some", live, archived)
				}
			},
		},
		{
			name: "evicted_and_back",
			chain: []func(*Analyzer){feed(0, q, false), feed(q, 2*q, false),
				steps(feed(2*q, 4*q, true), evict(4*q), feed(4*q, n, false))},
			check: func(t *testing.T, replica *Analyzer) {
				if live, archived := onQuiet(replica); live == 0 || archived == 0 {
					t.Errorf("replica holds %d live and %d archived streams of the flow that came back; want some of each", live, archived)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live := NewAnalyzer(cfg)
			var records, fulls [][]byte // records[0] is the full; fulls[i] the live engine's full after records[i]
			for i, step := range tc.chain {
				step(live)
				var rec bytes.Buffer
				var err error
				if i == 0 {
					err = live.Checkpoint(&rec)
				} else {
					err = live.CheckpointDelta(&rec)
				}
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				records = append(records, rec.Bytes())
				fulls = append(fulls, bytes.Clone(checkpointBytes(t, live)))
			}
			eng, err := RestoreAnalyzer(bytes.NewReader(records[0]), cfg)
			if err != nil {
				t.Fatal(err)
			}
			replica := eng.(*Analyzer)
			for i := 1; i < len(records); i++ {
				if err := replica.ApplyDelta(bytes.NewReader(records[i])); err != nil {
					t.Fatalf("delta %d: %v", i, err)
				}
				if got := checkpointBytes(t, replica); !bytes.Equal(got, fulls[i]) {
					t.Fatalf("after delta %d the replica encodes differently from the live engine (%d vs %d bytes)", i, len(got), len(fulls[i]))
				}
			}
			if first, last := len(records[1]), len(records[len(records)-1]); tc.name == "three_deltas" && last > first*5/4 {
				t.Errorf("equal shares of the capture, yet the third delta is %d bytes and the first %d: deltas that grow with the chain re-send history", last, first)
			}
			if tc.check != nil {
				tc.check(t, replica)
			}
			live.Finish()
			replica.Finish()
			if !bytes.Equal(reportBytes(t, live), reportBytes(t, replica)) {
				t.Error("the finished replica reports differently from the live engine")
			}
		})
	}
}

// TestDeltaCheckpointWithEviction drives the tombstone path: state
// evicted and archived between the full checkpoint and the delta must
// be deleted/archived identically on the delta-replayed side.
func TestDeltaCheckpointWithEviction(t *testing.T) {
	tr, opts := seededTrace(t, 20)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	n := len(tr.frames)
	cut := n / 2

	live := NewAnalyzer(cfg)
	for i := 0; i < cut; i++ {
		live.Packet(tr.at[i], tr.frames[i])
	}
	var full bytes.Buffer
	if err := live.Checkpoint(&full); err != nil {
		t.Fatal(err)
	}
	for i := cut; i < n; i++ {
		live.Packet(tr.at[i], tr.frames[i])
	}
	// Evict everything idle at the end of the trace: archives stream
	// metrics (tombstoning them), drops TCP trackers, folds flows into
	// aggregates — all of which the delta must carry.
	live.EvictIdle(tr.at[n-1].Add(time.Hour))
	var delta bytes.Buffer
	if err := live.CheckpointDelta(&delta); err != nil {
		t.Fatalf("delta after eviction: %v", err)
	}

	resumed, err := RestoreAnalyzer(bytes.NewReader(full.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.ApplyDelta(bytes.NewReader(delta.Bytes())); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if got, want := checkpointBytes(t, resumed), checkpointBytes(t, live); !bytes.Equal(got, want) {
		t.Fatalf("post-eviction delta replay encodes differently (lens %d vs %d)", len(got), len(want))
	}
}

// TestDeltaChainInvariants pins the chain discipline: base mismatches
// are refused, rotation disarms the chain, parallel engines refuse
// deltas after Finish, and a delta record cannot bootstrap an engine.
func TestDeltaChainInvariants(t *testing.T) {
	tr, opts := seededTrace(t, 10)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	n := len(tr.frames)

	t.Run("base_mismatch", func(t *testing.T) {
		eng := NewAnalyzer(cfg)
		for i := 0; i < n/2; i++ {
			eng.Packet(tr.at[i], tr.frames[i])
		}
		var full bytes.Buffer
		if err := eng.Checkpoint(&full); err != nil {
			t.Fatal(err)
		}
		for i := n / 2; i < n; i++ {
			eng.Packet(tr.at[i], tr.frames[i])
		}
		var delta bytes.Buffer
		if err := eng.CheckpointDelta(&delta); err != nil {
			t.Fatal(err)
		}
		// A fresh engine sits at packet 0, not at the delta's base.
		fresh := NewAnalyzer(cfg)
		if err := fresh.ApplyDelta(bytes.NewReader(delta.Bytes())); err == nil {
			t.Fatal("delta applied to an engine not at its base")
		}
		// Applying the same delta twice must fail too: the first apply
		// moved the packet count past the base.
		resumed, err := RestoreAnalyzer(bytes.NewReader(full.Bytes()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.ApplyDelta(bytes.NewReader(delta.Bytes())); err != nil {
			t.Fatal(err)
		}
		if err := resumed.ApplyDelta(bytes.NewReader(delta.Bytes())); err == nil {
			t.Fatal("same delta applied twice")
		}
	})

	t.Run("rotate_disarms", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			eng := newTestEngine(cfg, workers)
			for i := 0; i < n/2; i++ {
				eng.Packet(tr.at[i], tr.frames[i])
			}
			if err := eng.Checkpoint(&bytes.Buffer{}); err != nil {
				t.Fatal(err)
			}
			eng.Rotate(tr.at[n/2])
			if err := eng.CheckpointDelta(io_Discard{}); !errors.Is(err, ErrDeltaUnavailable) {
				t.Fatalf("workers=%d: post-rotate CheckpointDelta err = %v, want ErrDeltaUnavailable", workers, err)
			}
			// A fresh full checkpoint re-arms the chain.
			if err := eng.Checkpoint(&bytes.Buffer{}); err != nil {
				t.Fatal(err)
			}
			if err := eng.CheckpointDelta(&bytes.Buffer{}); err != nil {
				t.Fatalf("workers=%d: re-armed CheckpointDelta: %v", workers, err)
			}
			eng.Finish()
		}
	})

	t.Run("finish_disarms", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			eng := newTestEngine(cfg, workers)
			eng.Packet(tr.at[0], tr.frames[0])
			if err := eng.Checkpoint(&bytes.Buffer{}); err != nil {
				t.Fatal(err)
			}
			eng.Finish()
			if err := eng.CheckpointDelta(io_Discard{}); !errors.Is(err, ErrDeltaUnavailable) {
				t.Fatalf("workers=%d: post-Finish CheckpointDelta err = %v, want ErrDeltaUnavailable", workers, err)
			}
		}
	})

	t.Run("delta_cannot_bootstrap", func(t *testing.T) {
		eng := NewAnalyzer(cfg)
		eng.Packet(tr.at[0], tr.frames[0])
		if err := eng.Checkpoint(&bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		eng.Packet(tr.at[1], tr.frames[1])
		var delta bytes.Buffer
		if err := eng.CheckpointDelta(&delta); err != nil {
			t.Fatal(err)
		}
		if restored, err := RestoreAnalyzer(bytes.NewReader(delta.Bytes()), cfg); err == nil {
			t.Fatalf("delta record bootstrapped an engine: %T", restored)
		}
	})
}

// TestCheckpointCRCTrailer pins the corruption detection added with the
// V2 file format: any single flipped bit in a checkpoint file must be
// rejected at restore (by the CRC trailer, before decoding begins), and
// a truncated file must error rather than half-restore.
func TestCheckpointCRCTrailer(t *testing.T) {
	tr, opts := seededTrace(t, 10)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	for _, workers := range []int{1, 2} {
		eng := newTestEngine(cfg, workers)
		for i := 0; i < len(tr.frames)/2; i++ {
			eng.Packet(tr.at[i], tr.frames[i])
		}
		data := checkpointBytes(t, eng)
		eng.Finish()

		// Pristine restores.
		if _, err := RestoreAnalyzer(bytes.NewReader(data), cfg); err != nil {
			t.Fatalf("workers=%d: pristine restore: %v", workers, err)
		}
		// Sampled bit flips across the whole file (header, payload,
		// trailer) must all be caught.
		step := len(data)/64 + 1
		for off := 0; off < len(data); off += step {
			bad := append([]byte(nil), data...)
			bad[off] ^= 0x10
			if eng, err := RestoreAnalyzer(bytes.NewReader(bad), cfg); err == nil {
				Discard(eng)
				t.Fatalf("workers=%d: flipped bit at %d/%d restored cleanly", workers, off, len(data))
			}
		}
		// Truncations at sampled points must error.
		for _, cut := range []int{1, 5, len(data) / 3, len(data) - 1} {
			if eng, err := RestoreAnalyzer(bytes.NewReader(data[:cut]), cfg); err == nil {
				Discard(eng)
				t.Fatalf("workers=%d: truncation at %d/%d restored cleanly", workers, cut, len(data))
			}
		}
	}
}

// TestShedAccounting exercises the overload-shedding path: a shedding
// engine must never block on saturated shard queues, every dropped batch
// must be accounted in the summary, and with shedding off the engine
// must instead apply backpressure and analyze everything.
func TestShedAccounting(t *testing.T) {
	tr, opts := seededTrace(t, 10)
	base := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}

	t.Run("disabled_never_sheds", func(t *testing.T) {
		eng := NewParallelAnalyzer(base, 4)
		for i := range tr.frames {
			eng.Packet(tr.at[i], tr.frames[i])
		}
		eng.Finish()
		s := eng.Result().Summary()
		if s.ShedPackets != 0 || s.ShedBytes != 0 {
			t.Errorf("shedding disabled but summary reports shed %d packets / %d bytes",
				s.ShedPackets, s.ShedBytes)
		}
		if s.Packets != uint64(len(tr.frames)) {
			t.Errorf("packets = %d, want %d", s.Packets, len(tr.frames))
		}
	})

	t.Run("enabled_accounts_drops", func(t *testing.T) {
		cfg := base
		cfg.Shed = true
		eng := NewParallelAnalyzer(cfg, 4)
		// Tight-loop feeding outruns the small shard queues, so some
		// batches are shed; the call must never block.
		for i := range tr.frames {
			eng.Packet(tr.at[i], tr.frames[i])
		}
		eng.Finish()
		s := eng.Result().Summary()
		// The dispatcher counts every ingested packet; shed packets are a
		// subset that never reached a shard.
		if s.Packets != uint64(len(tr.frames)) {
			t.Errorf("packets = %d, want %d (ingest accounting must include shed)",
				s.Packets, len(tr.frames))
		}
		if s.ShedPackets > s.Packets {
			t.Errorf("shed %d > ingested %d", s.ShedPackets, s.Packets)
		}
		if s.ShedPackets > 0 && s.ShedBytes == 0 {
			t.Errorf("shed %d packets but 0 bytes", s.ShedPackets)
		}
	})
}

// io_Discard is a writer for calls whose output is irrelevant.
type io_Discard struct{}

func (io_Discard) Write(p []byte) (int, error) { return len(p), nil }

// newTestEngine mirrors the root package's newEngineFor helper.
func newTestEngine(cfg Config, workers int) Engine {
	if workers > 1 {
		return NewParallelAnalyzer(cfg, workers)
	}
	return NewAnalyzer(cfg)
}

// TestCheckpointDeterministicUnderEviction is the regression test for
// the archive-order leak: idle eviction used to archive while ranging over the
// StreamMetrics map, so two runs over the same capture could archive the
// victims of one eviction pass in different orders — different full
// checkpoint bytes. With TTL eviction on, the same capture must now
// checkpoint to the same bytes every time.
func TestCheckpointDeterministicUnderEviction(t *testing.T) {
	gcfg := trace.DefaultStreamConfig()
	gcfg.Streams = 2000
	gcfg.Packets = 60000
	gcfg.ChurnEvery = 8
	var recs []pcap.Record
	gen, err := trace.NewStreamGen(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec pcap.Record
	for gen.Next(&rec) == nil {
		cp := rec
		cp.Data = bytes.Clone(rec.Data)
		recs = append(recs, cp)
	}
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{gcfg.ZoomNet},
		CampusNetworks: []netip.Prefix{gcfg.CampusNet},
		FlowTTL:        200 * time.Millisecond,
	}
	run := func() ([]byte, int) {
		a := NewAnalyzer(cfg)
		for _, r := range recs {
			a.Packet(r.Timestamp, r.Data)
		}
		return checkpointBytes(t, a), len(a.Finished)
	}
	want, archived := run()
	if archived < 2 {
		t.Fatalf("eviction archived %d streams; test is vacuous", archived)
	}
	for i := 0; i < 3; i++ {
		if got, _ := run(); !bytes.Equal(got, want) {
			t.Fatalf("run %d: checkpoint differs from the first run's over the same capture (%d vs %d bytes)", i+2, len(got), len(want))
		}
	}
}

// TestTCPTrackerIdleEviction follows one control connection's RTT
// tracker through its whole life under FlowTTL: observed, captured by a
// full checkpoint, idled past the TTL while another connection keeps the
// maintenance clock running, evicted (EvictedTCP) at the packet at which
// an engine restored from that checkpoint evicts it too, carried to a
// replica as a delta tombstone, and recreated when the client speaks
// again.
func TestTCPTrackerIdleEviction(t *testing.T) {
	server := netip.MustParseAddrPort("203.0.113.7:443")
	idle := netip.MustParseAddrPort("10.0.0.5:50000")
	busy := netip.MustParseAddrPort("10.0.0.6:50001")
	cfg := Config{ZoomNetworks: []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")}, FlowTTL: time.Second}
	start := time.Date(2022, 3, 1, 12, 0, 0, 0, time.UTC)

	// exchange is one data segment from client and the server's ACK
	// 2 ms later: two packets, one RTT sample.
	exchange := func(eng Engine, client netip.AddrPort, at time.Time, round int) {
		seq := uint32(1000 + 100*round)
		eng.Packet(at, new(layers.Builder).BuildTCP(client, server, 64, seq, 1, layers.TCPAck|layers.TCPPsh, 65535, make([]byte, 100)))
		eng.Packet(at.Add(2*time.Millisecond), new(layers.Builder).BuildTCP(server, client, 64, 1, seq+100, layers.TCPAck, 65535, nil))
	}
	restore := func(ck []byte) *Analyzer {
		eng, err := RestoreAnalyzer(bytes.NewReader(ck), cfg)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		return eng.(*Analyzer)
	}

	live := NewAnalyzer(cfg)
	for round := 0; round < 5; round++ {
		exchange(live, idle, start.Add(time.Duration(round)*10*time.Millisecond), round)
	}
	if tr := live.TCP[idle]; tr == nil || tr.Samples.Len() != 5 {
		t.Fatalf("idle connection's tracker before the checkpoint: %+v", tr)
	}
	full := checkpointBytes(t, live)
	resumed := restore(full)

	// The busy connection carries the clock 4 s forward, far past the
	// TTL, across the engine's first eviction point; both engines must
	// drop the idle tracker on the same packet.
	evictedAt := func(a *Analyzer) int {
		at, packets := -1, int(a.Summary().Packets)
		for round := 0; round < maintainEvery/2; round++ {
			exchange(a, busy, start.Add(time.Second+time.Duration(round)*time.Millisecond), round)
			packets += 2
			if at < 0 && a.EvictedTCP > 0 {
				at = packets
			}
		}
		return at
	}
	liveAt, resumedAt := evictedAt(live), evictedAt(resumed)
	if liveAt != maintainEvery || resumedAt != liveAt {
		t.Fatalf("idle tracker evicted at packet %d live, %d restored; want both at the maintenance tick, packet %d", liveAt, resumedAt, maintainEvery)
	}
	for name, a := range map[string]*Analyzer{"live": live, "restored": resumed} {
		if a.EvictedTCP != 1 || a.TCP[idle] != nil || a.TCP[busy] == nil {
			t.Errorf("%s engine after the tick: EvictedTCP %d, idle tracker %v, busy tracker %v; want 1, gone, kept",
				name, a.EvictedTCP, a.TCP[idle] != nil, a.TCP[busy] != nil)
		}
	}

	// The delta cut after the eviction deletes the tracker from a replica
	// that still holds it, and adds the busy one; the restored engine cuts
	// the same record.
	cutDelta := func(a *Analyzer) []byte {
		var delta bytes.Buffer
		if err := a.CheckpointDelta(&delta); err != nil {
			t.Fatalf("delta: %v", err)
		}
		return delta.Bytes()
	}
	replay := func(delta []byte) *Analyzer {
		replica := restore(full)
		if replica.TCP[idle] == nil {
			t.Fatal("replica restored without the idle tracker; the tombstone has nothing to delete")
		}
		if err := replica.ApplyDelta(bytes.NewReader(delta)); err != nil {
			t.Fatalf("apply: %v", err)
		}
		return replica
	}
	delta := cutDelta(live)
	if !bytes.Equal(delta, cutDelta(resumed)) {
		t.Error("restored engine's delta differs from the live engine's after the same packets")
	}
	replica := replay(delta)
	if replica.TCP[idle] != nil || replica.TCP[busy] == nil || replica.EvictedTCP != 1 {
		t.Errorf("replica after the delta: idle tracker %v, busy tracker %v, EvictedTCP %d; want gone, present, 1",
			replica.TCP[idle] != nil, replica.TCP[busy] != nil, replica.EvictedTCP)
	}
	if !bytes.Equal(checkpointBytes(t, replica), checkpointBytes(t, live)) {
		t.Error("delta-replayed state encodes differently from the engine the delta was cut from")
	}

	// Evicted and back within one checkpoint interval: the delta carries
	// the tombstone and the new tracker, which starts from nothing.
	back := restore(full)
	evictedAt(back)
	exchange(back, idle, start.Add(6*time.Second), 0)
	if tr := back.TCP[idle]; tr == nil || tr.Samples.Len() != 1 {
		t.Fatalf("returning connection's tracker: %+v, want a fresh one with 1 sample", tr)
	}
	replica = replay(cutDelta(back))
	if tr := replica.TCP[idle]; tr == nil || tr.Samples.Len() != 1 {
		t.Errorf("replica's tracker for the returning connection: %+v, want 1 sample", tr)
	}
	if !bytes.Equal(checkpointBytes(t, replica), checkpointBytes(t, back)) {
		t.Error("delta-replayed state encodes differently from the live engine after the connection returned")
	}
}

// chunkSink records how a record reached a plain io.Writer: the size of
// every Write, and, when failAt > 0, refuses that Write and every later
// one.
type chunkSink struct {
	bytes.Buffer
	writes []int
	failAt int
}

var errSinkFull = errors.New("sink refused the write")

func (w *chunkSink) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	if w.failAt > 0 && len(w.writes) >= w.failAt {
		return 0, errSinkFull
	}
	return w.Buffer.Write(p)
}

// bounded reports whether every Write carried at most the spill size.
func (w *chunkSink) bounded() bool {
	return !slices.ContainsFunc(w.writes, func(n int) bool { return n > statecodec.SpillSize })
}

// TestCheckpointWriterContract: a plain io.Writer receives a record, full
// or delta, in Writes of at most statecodec.SpillSize that concatenate to
// the record; a *statecodec.Writer — what the driver's chain hands the
// engine — has the same bytes appended after what it already holds, with
// the CRC over the record alone.
func TestCheckpointWriterContract(t *testing.T) {
	tr, opts := seededTrace(t, 4)
	cfg := Config{ZoomNetworks: []netip.Prefix{opts.ZoomNet}, CampusNetworks: []netip.Prefix{opts.CampusNet}}
	build := func() *Analyzer {
		a := NewAnalyzer(cfg)
		for i := 0; i < len(tr.frames)/2; i++ {
			a.Packet(tr.at[i], tr.frames[i])
		}
		return a
	}
	more := func(a *Analyzer) {
		for i := len(tr.frames) / 2; i < len(tr.frames); i++ {
			a.Packet(tr.at[i], tr.frames[i])
		}
	}
	plain, direct := build(), build()
	var full, delta chunkSink
	var enc statecodec.Writer
	enc.U8(0xEE) // already holds something: the record must not disturb or include it
	if err := plain.Checkpoint(&full); err != nil {
		t.Fatal(err)
	}
	if err := direct.Checkpoint(&enc); err != nil {
		t.Fatal(err)
	}
	if !full.bounded() {
		t.Errorf("full checkpoint reached a plain writer in Writes of %v bytes, want at most %d each", full.writes, statecodec.SpillSize)
	}
	if got := enc.Bytes(); got[0] != 0xEE || !bytes.Equal(got[1:], full.Bytes()) {
		t.Errorf("full checkpoint appended to a statecodec.Writer differs from the one written (%d vs %d bytes)", len(got)-1, full.Len())
	}
	more(plain)
	more(direct)
	enc.Reset()
	if err := plain.CheckpointDelta(&delta); err != nil {
		t.Fatal(err)
	}
	if err := direct.CheckpointDelta(&enc); err != nil {
		t.Fatal(err)
	}
	if !delta.bounded() {
		t.Errorf("delta checkpoint reached a plain writer in Writes of %v bytes, want at most %d each", delta.writes, statecodec.SpillSize)
	}
	if !bytes.Equal(enc.Bytes(), delta.Bytes()) {
		t.Errorf("delta appended to a statecodec.Writer differs from the one written (%d vs %d bytes)", enc.Len(), delta.Len())
	}
}

// TestCheckpointStreamDifferential holds a streamed record to the
// in-memory one byte for byte. Twin engines take the same packets; one
// encodes into a *statecodec.Writer without a sink, the other streams —
// through a plain io.Writer that takes Writes of any size, and through a
// statecodec.Writer with that sink, as the driver's chain does — full and
// delta records at 1, 2 and 4 workers, after a rotation and after a
// full+delta restore. A sink that fails at its n-th Write makes the encode
// return the error and leaves the chain where it was: the next delta is
// the one the refused record's twin never had to write.
func TestCheckpointStreamDifferential(t *testing.T) {
	tr, opts := seededTrace(t, 12)
	cfg := Config{ZoomNetworks: []netip.Prefix{opts.ZoomNet}, CampusNetworks: []netip.Prefix{opts.CampusNet}}
	n := len(tr.frames)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			mem, str := newTestEngine(cfg, workers), newTestEngine(cfg, workers)
			feed := func(from, to int) {
				for i := from; i < to; i++ {
					mem.Packet(tr.at[i], tr.frames[i])
					str.Packet(tr.at[i], tr.frames[i])
				}
			}
			// got is the streamed record; chain is the driver's path to it,
			// one streaming Writer reused across records, which every other
			// record takes.
			var got chunkSink
			chain := statecodec.NewWriter(&got)
			records, multi := 0, false
			// check encodes one record on each twin and returns it.
			check := func(what string, delta bool) []byte {
				t.Helper()
				encode := func(eng Engine, w io.Writer) error {
					if delta {
						return eng.CheckpointDelta(w)
					}
					return eng.Checkpoint(w)
				}
				var want statecodec.Writer
				if err := encode(mem, &want); err != nil {
					t.Fatalf("%s in memory: %v", what, err)
				}
				got = chunkSink{}
				var sink io.Writer = &got
				if records++; records%2 == 0 {
					chain.Reset()
					sink = chain
				}
				if err := encode(str, sink); err != nil {
					t.Fatalf("%s streamed: %v", what, err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s: streamed record differs from the in-memory one (%d vs %d bytes)", what, got.Len(), want.Len())
				}
				if !got.bounded() {
					t.Errorf("%s: Writes of %v bytes, want at most %d each", what, got.writes, statecodec.SpillSize)
				}
				multi = multi || len(got.writes) > 2
				return bytes.Clone(want.Bytes())
			}

			feed(0, n/4)
			full := check("full", false)
			feed(n/4, n/2)
			delta := check("delta", true)

			// A refused record: the encode reports the sink's error, and the
			// streaming twin stays anchored where its in-memory twin is.
			feed(n/2, 9*n/16)
			for _, failAt := range []int{1, 2} {
				bad := chunkSink{failAt: failAt}
				if err := str.Checkpoint(&bad); !errors.Is(err, errSinkFull) {
					t.Fatalf("full refused at Write %d: err = %v, want the sink's", failAt, err)
				}
			}
			check("delta after a refused full", true)

			mem.Rotate(tr.at[5*n/8])
			str.Rotate(tr.at[5*n/8])
			feed(9*n/16, 11*n/16)
			check("full after a rotation", false)
			feed(11*n/16, 3*n/4)
			check("delta after a rotation", true)

			// Both twins restart from the first full and delta.
			restore := func() Engine {
				eng, err := RestoreAnalyzer(bytes.NewReader(full), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.ApplyDelta(bytes.NewReader(delta)); err != nil {
					t.Fatal(err)
				}
				return eng
			}
			Discard(mem)
			Discard(str)
			mem, str = restore(), restore()
			feed(n/2, 3*n/4)
			check("delta after a restore", true)
			feed(3*n/4, n)
			check("full after a restore", false)
			Discard(mem)
			Discard(str)
			if !multi {
				t.Error("no record took more than two Writes: the stream was never exercised")
			}
		})
	}
}

// TestStreamRecordChainDifferential holds the engines that ride the flow
// table's stream records to an uninterrupted run, at 1, 2 and 4 workers.
// Two schedules go through a full checkpoint, a delta and a restore of
// both before the rest of the schedule: one where every stream is evicted
// and recreated between the two records (the same frames again an hour
// later), one where the only touch between them is non-media frames, so
// the table lists streams for their RTCP reports alone and the delta
// writes engines nothing touched. Then a parallel engine finished and fed
// again, with a full checkpoint before the Finish and a chain after it.
// Last, a cluster merge: a router, that many pre-filtered workers, each
// restored from its own checkpoint, merged, checkpointed, restored and
// finished. Each gives the report of one sequential engine fed the same
// frames.
func TestStreamRecordChainDifferential(t *testing.T) {
	tr, opts := seededTrace(t, 12)
	cfg := Config{ZoomNetworks: []netip.Prefix{opts.ZoomNet}, CampusNetworks: []netip.Prefix{opts.CampusNet}}
	n := len(tr.frames)
	media := make([]bool, n)
	probe := NewAnalyzer(cfg)
	for i := range tr.frames {
		before := probe.mediaPackets
		probe.Packet(tr.at[i], tr.frames[i])
		media[i] = probe.mediaPackets > before
	}
	feed := func(from, to int, shift time.Duration, keep func(i int) bool) func(Engine) {
		return func(eng Engine) {
			for i := from; i < to; i++ {
				if keep == nil || keep(i) {
					eng.Packet(tr.at[i].Add(shift), tr.frames[i])
				}
			}
		}
	}
	steps := func(s ...func(Engine)) func(Engine) {
		return func(eng Engine) {
			for _, f := range s {
				f(eng)
			}
		}
	}
	evictAll := func(eng Engine) {
		p := pipelineOf(eng)
		p.quiesce()
		for _, sh := range p.shards {
			sh.EvictIdle(tr.at[n-1])
		}
	}
	half := tr.at[n/2-1]
	for _, sc := range []struct {
		name           string
		pre, mid, post func(Engine)
		// needListed: the schedule is there for streams the table lists
		// but whose engines nothing touched since the checkpoint; without
		// it, for streams evicted and recreated since.
		needListed bool
	}{
		{"evicted and recreated", feed(0, n/2, 0, nil), steps(feed(n/2, 3*n/4, 0, nil), evictAll, feed(n/2, 3*n/4, time.Hour, nil)), feed(3*n/4, n, time.Hour, nil), false},
		{"rtcp-only touch", feed(0, n/2, 0, nil), feed(n/2, 3*n/4, 0, func(i int) bool { return !media[i] }), feed(3*n/4, n, 0, nil), true},
	} {
		ref := NewAnalyzer(cfg)
		steps(sc.pre, sc.mid, sc.post)(ref)
		ref.Finish()
		want := reportBytes(t, ref)
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(t *testing.T) {
				live := newTestEngine(cfg, workers)
				defer Discard(live)
				sc.pre(live)
				full := bytes.Clone(checkpointBytes(t, live))
				sc.mid(live)
				p, listed, recreated := pipelineOf(live), 0, 0
				p.quiesce()
				for _, sh := range p.shards {
					for _, st := range sh.Flows.Streams() {
						if st.LastSeen.After(half) && st.Owner.(*streamOwner).epoch != sh.ckEpoch {
							listed++
						}
					}
					for _, f := range sh.Finished {
						if _, ok := sh.Flows.Stream(f.ID); ok {
							recreated++
						}
					}
				}
				if sc.needListed && listed == 0 {
					t.Fatal("no stream was touched by RTCP alone between the records")
				}
				if !sc.needListed && recreated == 0 {
					t.Fatal("no stream was evicted and recreated between the records")
				}
				var delta bytes.Buffer
				if err := live.CheckpointDelta(&delta); err != nil {
					t.Fatal(err)
				}
				eng, err := RestoreAnalyzer(bytes.NewReader(full), cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer Discard(eng)
				if err := eng.ApplyDelta(&delta); err != nil {
					t.Fatal(err)
				}
				for _, e := range []Engine{live, eng} {
					sc.post(e)
					e.Finish()
					if got := reportBytes(t, e.Result()); !bytes.Equal(got, want) {
						t.Errorf("report differs from the sequential run's (%d vs %d bytes)", len(got), len(want))
					}
				}
			})
		}
	}

	// A parallel engine finished and fed again runs on its merged shard,
	// whose engines its shards last touched after a checkpoint of their
	// own: the merged shard's next chain must still note where their logs
	// stood at its checkpoint.
	ref := NewAnalyzer(cfg)
	steps(feed(0, n/2, 0, nil), func(e Engine) { e.Finish() }, feed(n/2, n, 0, nil))(ref)
	ref.Finish()
	want := reportBytes(t, ref)
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("fed after finish/workers=%d", workers), func(t *testing.T) {
			live := newTestEngine(cfg, workers)
			defer Discard(live)
			feed(0, n/4, 0, nil)(live)
			checkpointBytes(t, live)
			feed(n/4, n/2, 0, nil)(live)
			live.Finish()
			full := bytes.Clone(checkpointBytes(t, live))
			feed(n/2, 3*n/4, 0, nil)(live)
			var delta bytes.Buffer
			if err := live.CheckpointDelta(&delta); err != nil {
				t.Fatal(err)
			}
			eng, err := RestoreAnalyzer(bytes.NewReader(full), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.ApplyDelta(&delta); err != nil {
				t.Fatal(err)
			}
			for _, e := range []Engine{live, eng} {
				feed(3*n/4, n, 0, nil)(e)
				e.Finish()
				if got := reportBytes(t, e.Result()); !bytes.Equal(got, want) {
					t.Errorf("report differs from the sequential run's (%d vs %d bytes)", len(got), len(want))
				}
			}
		})
	}

	ref = NewAnalyzer(cfg)
	tr.feed(ref.Packet)
	ref.Finish()
	want = reportBytes(t, ref)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("cluster merge/workers=%d", workers), func(t *testing.T) {
			r := NewRouter(cfg, workers)
			wcfg := cfg
			wcfg.PreFiltered = true
			parts := make([]*Analyzer, workers)
			var logged []ClusterObs
			for i := range parts {
				parts[i] = NewAnalyzer(wcfg)
				if err := parts[i].SetClusterSink(func(o ClusterObs) { logged = append(logged, o) }); err != nil {
					t.Fatal(err)
				}
			}
			for i := range tr.frames {
				if w, keep := r.Route(tr.at[i], tr.frames[i]); keep {
					parts[w].IngestSeq([]pcap.Record{{Timestamp: tr.at[i], Data: tr.frames[i], PacketID: r.Packets}})
				}
			}
			for i, a := range parts {
				eng, err := RestoreAnalyzer(bytes.NewReader(checkpointBytes(t, a)), wcfg)
				if err != nil {
					t.Fatal(err)
				}
				parts[i] = eng.(*Analyzer)
			}
			merged := MergeCluster(cfg, parts, r.Head(false), func() (ClusterObs, bool) {
				if len(logged) == 0 {
					return ClusterObs{}, false
				}
				o := logged[0]
				logged = logged[1:]
				return o, true
			})
			eng, err := RestoreAnalyzer(bytes.NewReader(checkpointBytes(t, merged)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng.Finish()
			if got := reportBytes(t, eng.Result()); !bytes.Equal(got, want) {
				t.Errorf("restored merge's report differs from the sequential run's (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestDeltaBacklogBoundedByTable churns each keyed collection a delta
// selects from — the flow table's flows and streams, a shard's stream
// engines and TCP trackers, the copy matcher's streams — through six
// generations of records between two checkpoints: each round brings a
// generation in and evicts the one before, so the collection holds one
// generation while five times that many records pass through it. After
// every round the change list may hold no more than the live records and
// the tombstones no more than the base's, and at the end the tombstones
// are exactly the base's records: the ones born and evicted in between
// leave none. The full record from the first checkpoint plus the delta
// from the second, applied to a replica, must re-encode to the live
// layer's own full record.
func TestDeltaBacklogBoundedByTable(t *testing.T) {
	const n, rounds = 64, 5
	at := func(r int) time.Time { return layerT0.Add(time.Duration(r) * 10 * time.Second) }
	type layer struct {
		round   func(r int) // generation r in, generation r-1 out
		live    func() int
		backlog func() (changed, dead int)
		// full and delta encode a record and re-anchor; replica rebuilds a
		// layer from both and returns its full record, then live's.
		full, delta func() []byte
		replica     func(full, delta []byte) (got, want []byte)
	}
	codecLayer := func(l interface {
		coder
		MarkCheckpointed()
	}, fresh func() coder) (full, delta func() []byte, replica func(full, delta []byte) (got, want []byte)) {
		enc := func(full bool) func() []byte {
			return func() []byte {
				b := bytes.Clone(layerRecord(l, full))
				l.MarkCheckpointed()
				return b
			}
		}
		return enc(true), enc(false), func(full, delta []byte) (got, want []byte) {
			r := fresh()
			if err := layerApply(r, full); err != nil {
				t.Fatalf("full record onto a fresh layer: %v", err)
			}
			r.(interface{ MarkCheckpointed() }).MarkCheckpointed()
			if err := layerApply(r, delta); err != nil {
				t.Fatalf("delta onto its base: %v", err)
			}
			return layerRecord(r, true), layerRecord(l, true)
		}
	}
	for _, tc := range []struct {
		name  string
		fresh func() layer
	}{
		{"flow.Table", func() layer {
			tbl := tableCoder{flow.NewTable()}
			l := layer{
				round: func(r int) {
					for i := range n {
						ft := layerTuple(byte(i))
						ft.SrcPort = uint16(10000 + r)
						tbl.Observe(&flow.Record{Time: at(r), Flow: ft, WireLen: 100, Z: videoPacket(uint32(i), uint16(r), 1)})
					}
					tbl.EvictIdle(at(r).Add(-time.Second))
				},
				live:    func() int { tot := tbl.Totals(); return tot.Flows + tot.Streams },
				backlog: tbl.Backlog,
			}
			l.full, l.delta, l.replica = codecLayer(tbl, func() coder { return tableCoder{flow.NewTable()} })
			return l
		}},
		{"metrics.CopyMatcher", func() layer {
			cm := metrics.NewCopyMatcher()
			l := layer{
				// 64 observations on each of 64 streams: the matcher's ageing
				// sweep, once every 4,096 observations, runs at each round's
				// last one and drops the generation before, idle 10 s.
				round: func(r int) {
					for seq := range n {
						for i := range n {
							cm.Observe(meeting.UnifiedID(1+r*n+i), layerTuple(byte(i)), 98, uint16(seq), uint32(seq), at(r))
						}
					}
				},
				live:    func() int { return n },
				backlog: cm.Backlog,
			}
			l.full, l.delta, l.replica = codecLayer(cm, func() coder { return metrics.NewCopyMatcher() })
			return l
		}},
		{"shard", func() layer {
			cfg := Config{ZoomNetworks: []netip.Prefix{netip.MustParsePrefix("52.81.0.0/16")}, CampusNetworks: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}}
			a := NewAnalyzer(cfg)
			rng := rand.New(rand.NewSource(1))
			sfu := netip.MustParseAddrPort("52.81.3.4:8801")
			return layer{
				round: func(r int) {
					for i := range n {
						client := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 8, byte(r), byte(i)}), 52000)
						a.Packet(at(r), zoomAudioFrame(rng, client, sfu, uint32(r*n+i), zoom.PTAudioSpeak))
						a.Packet(at(r), new(layers.Builder).BuildTCP(client, netip.AddrPortFrom(sfu.Addr(), 443), 64, 1, 0, layers.TCPSyn, 65535, nil))
					}
					a.EvictIdle(at(r).Add(-time.Second))
				},
				// The metric engines ride the flow table's stream records.
				live: func() int { tot := a.Flows.Totals(); return tot.Flows + tot.Streams + len(a.TCP) },
				backlog: func() (changed, dead int) {
					fc, fd := a.Flows.Backlog()
					tc, td := a.tcpLog.Backlog()
					return fc + tc, fd + td
				},
				full: func() []byte { return bytes.Clone(checkpointBytes(t, a)) },
				delta: func() []byte {
					var buf bytes.Buffer
					if err := a.CheckpointDelta(&buf); err != nil {
						t.Fatalf("delta: %v", err)
					}
					return buf.Bytes()
				},
				replica: func(full, delta []byte) (got, want []byte) {
					r, err := RestoreAnalyzer(bytes.NewReader(full), cfg)
					if err != nil {
						t.Fatalf("restore: %v", err)
					}
					if err := r.ApplyDelta(bytes.NewReader(delta)); err != nil {
						t.Fatalf("delta onto its base: %v", err)
					}
					return checkpointBytes(t, r), checkpointBytes(t, a)
				},
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.fresh()
			l.round(0)
			base := l.live()
			full := l.full()
			for r := 1; r <= rounds; r++ {
				l.round(r)
				changed, dead := l.backlog()
				if live := l.live(); changed > live || dead > base {
					t.Fatalf("round %d: %d listed of %d live records, %d tombstones of %d base records", r, changed, live, dead, base)
				}
			}
			if _, dead := l.backlog(); dead != base {
				t.Errorf("%d tombstones after the base's %d records were all evicted: want exactly those", dead, base)
			}
			if got, want := l.replica(full, l.delta()); !bytes.Equal(got, want) {
				t.Errorf("full + delta onto a replica re-encodes to %d bytes, the live layer's full record is %d", len(got), len(want))
			}
		})
	}
}
