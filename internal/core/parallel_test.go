package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"zoomlens/internal/capture"
	"zoomlens/internal/flow"
	"zoomlens/internal/layers"
	"zoomlens/internal/metrics"
	"zoomlens/internal/netsim"
	"zoomlens/internal/obs"
	"zoomlens/internal/pcap"
	"zoomlens/internal/sim"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/stun"
	"zoomlens/internal/trace"
)

// capturedTrace records a simulated capture so the same packets can be
// replayed into several analyzers.
type capturedTrace struct {
	at     []time.Time
	frames [][]byte
}

func (tr *capturedTrace) record(at time.Time, frame []byte) {
	cp := make([]byte, len(frame))
	copy(cp, frame)
	tr.at = append(tr.at, at)
	tr.frames = append(tr.frames, cp)
}

func (tr *capturedTrace) feed(pkt func(time.Time, []byte)) {
	for i := range tr.frames {
		pkt(tr.at[i], tr.frames[i])
	}
}

// seededTrace simulates a small campus: one three-party SFU meeting with
// a congestion episode and WAN loss, plus a two-party meeting that goes
// P2P (exercising STUN, the mode transition, and copy-rich paths).
// episodes are further impairments of the WAN downlink.
func seededTrace(t testing.TB, seconds int, episodes ...netsim.Congestion) (*capturedTrace, sim.Options) {
	t.Helper()
	opts := sim.DefaultOptions()
	opts.WanLoss = 0.01
	w := sim.NewWorld(opts)
	tr := &capturedTrace{}
	w.Monitor = tr.record
	m1 := w.NewMeeting()
	m1.Join(w.NewClient("a", true), sim.DefaultMediaSet())
	m1.Join(w.NewClient("b", true), sim.DefaultMediaSet())
	m1.Join(w.NewClient("c", true), sim.DefaultMediaSet())
	m2 := w.NewMeeting()
	m2.EnableP2P(5 * time.Second)
	m2.Join(w.NewClient("d", true), sim.DefaultMediaSet())
	m2.Join(w.NewClient("e", false), sim.DefaultMediaSet())
	w.WanDown.Episodes = append(w.WanDown.Episodes, netsim.Congestion{
		Start:       opts.Start.Add(time.Duration(seconds/3) * time.Second),
		End:         opts.Start.Add(time.Duration(seconds/2) * time.Second),
		ExtraDelay:  20 * time.Millisecond,
		ExtraJitter: 25 * time.Millisecond,
		LossRate:    0.02,
	})
	w.WanDown.Episodes = append(w.WanDown.Episodes, episodes...)
	w.Run(opts.Start.Add(time.Duration(seconds) * time.Second))
	return tr, opts
}

// freeze is a downlink delivery freeze from at seconds into the trace:
// for two seconds every packet is held 600 ms longer, which drains a
// receiver's jitter buffer, so the streams it hits predict stalls.
func freeze(at time.Duration) netsim.Congestion {
	start := sim.DefaultOptions().Start.Add(at)
	return netsim.Congestion{Start: start, End: start.Add(2 * time.Second), ExtraDelay: 600 * time.Millisecond}
}

// checkConservation asserts packet conservation (AccountingGap) on an
// engine at rest that had no shard panic: every frame read ends in
// exactly one terminal bucket.
func checkConservation(t *testing.T, name string, a *Analyzer) {
	t.Helper()
	if gap, panics := a.AccountingGap(); gap != 0 || panics != 0 {
		t.Errorf("%s: %d frames in, terminal buckets off by %d with %d shard panics (head %+v, shard %+v)",
			name, a.Packets, gap, panics, a.ClusterHead, a.shardCounters)
	}
}

// TestParallelMatchesSequential is the differential gate for the sharded
// pipeline: a 4-worker parallel analyzer must produce results identical
// to the sequential analyzer on the same seeded campus trace — summary,
// meetings, stream identifiers, per-stream loss stats and metric series,
// RTT samples, and TCP RTT decomposition. Run under -race this also
// exercises the worker pool for data races.
func TestParallelMatchesSequential(t *testing.T) {
	tr, opts := seededTrace(t, 20, freeze(8*time.Second))
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}

	seq := NewAnalyzer(cfg)
	tr.feed(seq.Packet)
	seq.Finish()

	pa := NewParallelAnalyzer(cfg, 4)
	if pa.Workers() != 4 {
		t.Fatalf("workers = %d", pa.Workers())
	}
	tr.feed(pa.Packet)
	pa.Finish()
	par := pa.Result()

	if s, p := seq.Summary(), par.Summary(); s != p {
		t.Fatalf("summary diverges:\nsequential %+v\nparallel   %+v", s, p)
	}
	checkConservation(t, "sequential", seq)
	checkConservation(t, "parallel", par)
	if !reflect.DeepEqual(seq.Meetings(), par.Meetings()) {
		t.Errorf("meetings diverge:\nsequential %+v\nparallel   %+v", seq.Meetings(), par.Meetings())
	}
	sids, pids := streamIDs(seq), streamIDs(par)
	if !reflect.DeepEqual(sids, pids) {
		t.Fatalf("stream IDs diverge:\nsequential %v\nparallel   %v", sids, pids)
	}
	stalls := 0
	for _, id := range sids {
		ss := seq.StreamMetrics[id]
		ps, ok := par.StreamMetrics[id]
		if !ok {
			t.Fatalf("stream %v missing from parallel result", id)
		}
		if ss.LossStats() != ps.LossStats() {
			t.Errorf("stream %v loss stats diverge: %+v vs %+v", id, ss.LossStats(), ps.LossStats())
		}
		if ss.Packets != ps.Packets || ss.MediaBytes != ps.MediaBytes {
			t.Errorf("stream %v counters diverge", id)
		}
		if ss.FramesTotal() != ps.FramesTotal() {
			t.Errorf("stream %v frame counts diverge: %d vs %d", id, ss.FramesTotal(), ps.FramesTotal())
		}
		if !reflect.DeepEqual(ss.Stalls(), ps.Stalls()) {
			t.Errorf("stream %v stalls diverge: %+v vs %+v", id, ss.Stalls(), ps.Stalls())
		}
		stalls += len(ss.Stalls())
		for name, pair := range map[string][2][]metrics.Sample{
			"frame_rate": {all(ss.FrameRate().Samples), all(ps.FrameRate().Samples)},
			"media_rate": {all(ss.MediaRate.Samples), all(ps.MediaRate.Samples)},
			"jitter_ms":  {all(ss.JitterMS.Samples), all(ps.JitterMS.Samples)},
			"frame_size": {all(ss.FrameSize().Samples), all(ps.FrameSize().Samples)},
		} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Errorf("stream %v series %s diverges (%d vs %d samples)", id, name, len(pair[0]), len(pair[1]))
			}
		}
	}
	if stalls == 0 {
		t.Error("no stream predicts a stall: the stall rows check nothing")
	}
	if !reflect.DeepEqual(all(seq.Copies.Samples), all(par.Copies.Samples)) {
		t.Errorf("RTT samples diverge: %d vs %d", seq.Copies.Samples.Len(), par.Copies.Samples.Len())
	}
	if len(seq.TCP) != len(par.TCP) {
		t.Fatalf("TCP trackers: %d vs %d", len(seq.TCP), len(par.TCP))
	}
	for client, st := range seq.TCP {
		pt, ok := par.TCP[client]
		if !ok {
			t.Fatalf("TCP tracker for %v missing", client)
		}
		if st.Split() != pt.Split() {
			t.Errorf("client %v TCP RTT split diverges: %+v vs %+v", client, st.Split(), pt.Split())
		}
	}
	// Flow-table reproductions (Tables 2/3) must match too.
	sSum := seq.Summary()
	if !reflect.DeepEqual(
		seq.Flows.EncapShares(sSum.Packets, sSum.Bytes),
		par.Flows.EncapShares(sSum.Packets, sSum.Bytes),
	) {
		t.Error("encap shares diverge")
	}
	if !reflect.DeepEqual(
		seq.Flows.PayloadTypeShares(sSum.Packets, sSum.Bytes),
		par.Flows.PayloadTypeShares(sSum.Packets, sSum.Bytes),
	) {
		t.Error("payload type shares diverge")
	}
}

// TestParallelWorkerCounts checks the summary stays identical across a
// range of shard counts, including the degenerate single-worker case.
func TestParallelWorkerCounts(t *testing.T) {
	tr, opts := seededTrace(t, 8)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	seq := NewAnalyzer(cfg)
	tr.feed(seq.Packet)
	seq.Finish()
	want := seq.Summary()
	for _, workers := range []int{1, 2, 3, 8} {
		pa := NewParallelAnalyzer(cfg, workers)
		tr.feed(pa.Packet)
		pa.Finish()
		if got := pa.Result().Summary(); got != want {
			t.Errorf("workers=%d: summary %+v, want %+v", workers, got, want)
		}
		checkConservation(t, fmt.Sprintf("workers=%d", workers), pa.Result())
	}
}

// TestParallelReadPCAP covers the pcap entry point of the parallel
// pipeline against the sequential one.
func TestParallelReadPCAP(t *testing.T) {
	tr, opts := seededTrace(t, 6)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	seq := NewAnalyzer(cfg)
	tr.feed(seq.Packet)
	seq.Finish()

	pa := NewParallelAnalyzer(cfg, 4)
	tr.feed(pa.Packet)
	pa.Finish()
	if got, want := pa.Result().Summary(), seq.Summary(); got != want {
		t.Fatalf("summary = %+v, want %+v", got, want)
	}
	// Finish twice is safe.
	pa.Finish()
}

// TestSTUNClassifiedByMagicCookie feeds STUN messages on non-3478 media
// ports: they must count as STUN, not fall through to the Zoom parser
// and inflate Undecodable/UDPKeptPackets.
func TestSTUNClassifiedByMagicCookie(t *testing.T) {
	a := NewAnalyzer(Config{PreFiltered: true})
	src := netip.MustParseAddrPort("10.8.0.10:8801")
	dst := netip.MustParseAddrPort("203.0.113.7:9000")
	msg := stun.NewBindingRequest(stun.TransactionID{1, 2, 3})
	frame := layers.EthernetIPv4UDP(src, dst, 64, msg.Marshal())
	at := time.Unix(1700000000, 0)
	a.Packet(at, frame)

	resp := stun.NewBindingResponse(stun.TransactionID{1, 2, 3}, src)
	a.Packet(at.Add(time.Millisecond), layers.EthernetIPv4UDP(dst, src, 64, resp.Marshal()))

	if a.STUNPackets != 2 {
		t.Errorf("STUNPackets = %d, want 2", a.STUNPackets)
	}
	if got := a.Summary().Undecodable; got != 0 {
		t.Errorf("Undecodable = %d, want 0 (STUN misclassified as failed Zoom parse)", got)
	}
	if a.UDPKeptPackets != 0 || a.UDPKeptBytes != 0 {
		t.Errorf("UDPKept = %d pkts / %d bytes, want 0 (STUN must not enter the Table 2/3 denominators)",
			a.UDPKeptPackets, a.UDPKeptBytes)
	}
}

// TestShardAffinity checks the routing invariants directly: both
// directions of a TCP connection share a shard, and a UDP flow always
// hashes to the same shard.
func TestShardAffinity(t *testing.T) {
	zoomNet := netip.MustParsePrefix("203.0.113.0/24")
	pa := NewParallelAnalyzer(Config{ZoomNetworks: []netip.Prefix{zoomNet}}, 7)
	defer pa.Finish()

	route := func(frame []byte) int {
		shard, keep := pa.route(time.Unix(1700000000, 0), frame, pa.seq+1)
		if !keep {
			t.Fatal("front end dropped a Zoom-server frame")
		}
		return shard
	}
	client := netip.MustParseAddrPort("10.8.0.10:50000")
	server := netip.MustParseAddrPort("203.0.113.7:443")
	up := route(new(layers.Builder).BuildTCP(client, server, 64, 100, 0, layers.TCPSyn, 1024, nil))
	down := route(new(layers.Builder).BuildTCP(server, client, 64, 1, 101, layers.TCPSyn|layers.TCPAck, 1024, nil))
	if up != down {
		t.Errorf("TCP directions on different shards: %d vs %d", up, down)
	}

	mediaSrc := netip.MustParseAddrPort("10.8.0.10:50001")
	mediaDst := netip.MustParseAddrPort("203.0.113.7:8801")
	u1 := route(layers.EthernetIPv4UDP(mediaSrc, mediaDst, 64, []byte{1, 2, 3, 4}))
	u2 := route(layers.EthernetIPv4UDP(mediaSrc, mediaDst, 64, []byte{9, 9, 9, 9, 9}))
	if u1 != u2 {
		t.Error("same UDP flow routed to different shards")
	}
}

// TestQueueBackpressure pins what the shard queue and the cut queue are
// for. With one shard held inside its per-packet hook, a blocking engine's
// front end must stop within (shardQueueDepth+2) batches of that shard —
// the queue, the batch the shard holds and the one the front end cannot
// hand over — so memory stays bounded however far the shard falls behind,
// and once released the run must still equal the sequential engine's. A
// shedding engine in the same position must never block, and must count
// exactly the frames no shard analysed. The cut rows hold the shard a few
// hundred packets before a periodic cut, so the cut is issued while the
// shard is held: its marker takes a slot of the held queue (the frame
// bound still holds), the reconciler waits for the held shard's chain, and
// at most cutQueueDepth+1 cuts may be outstanding — the one the reconciler
// is collecting and a full cut queue — before the front end stops; under
// shedding the second cut finds the held queue full and is skipped, never
// waited for.
func TestQueueBackpressure(t *testing.T) {
	short, opts := seededTrace(t, 10)
	long, _ := seededTrace(t, 60)
	if len(long.frames) <= 2*reconEvery {
		t.Fatalf("the cut rows need two cuts, %d packets; the trace has %d", 2*reconEvery, len(long.frames))
	}
	base := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
		PreFiltered:    true,
	}
	const workers, bound = 2, (shardQueueDepth + 2) * shardBatchSize
	zoom := capture.NewPrefixSet(base.ZoomNetworks)
	onHeld := func(frame []byte) bool {
		var ri rawInfo
		return rawScan(frame, &ri) && shardOf(zoom, workers, ri.isTCP, ri.src, ri.dst, ri.srcPort, ri.dstPort) == 0
	}

	// hold starts an engine whose shard 0 parks on its first frame timed at
	// or after from until release is called, and a feeder goroutine
	// offering the whole trace; it returns once shard 0 has parked or the
	// feed has ended. (Under Shed the feed can end first: the batches that
	// held shard 0's frames from that point on were shed, and its last
	// partial batch stays in the front end until Finish.) counts reports
	// how many shard-0 frames the feeder has offered, how many of them
	// shard 0 had taken up when it parked (the parked one included), and
	// how many frames the shards have taken up in all.
	type counts struct{ offered, held, analysed int }
	hold := func(cfg Config, tr *capturedTrace, from time.Time) (pa *ParallelAnalyzer, fed <-chan struct{}, release func(), read func() counts) {
		var mu sync.Mutex
		var c counts
		taken := 0
		gate, entered, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		var once sync.Once
		pa = NewParallelAnalyzer(cfg, workers)
		pa.SetPanicHook(func(at time.Time, frame []byte) {
			mu.Lock()
			c.analysed++
			mu.Unlock()
			if !onHeld(frame) {
				return
			}
			taken++ // shard 0's goroutine only
			if at.Before(from) {
				return
			}
			once.Do(func() {
				mu.Lock()
				c.held = taken
				mu.Unlock()
				close(entered)
				<-gate
			})
		})
		go func() {
			defer close(done)
			for i, frame := range tr.frames {
				if onHeld(frame) {
					mu.Lock()
					c.offered++
					mu.Unlock()
				}
				pa.Packet(tr.at[i], frame)
			}
		}()
		select {
		case <-entered:
		case <-done:
		}
		read = func() counts {
			mu.Lock()
			defer mu.Unlock()
			return c
		}
		return pa, done, func() { close(gate) }, read
	}

	for _, row := range []struct {
		name string
		tr   *capturedTrace
		from time.Time
	}{
		{"", short, time.Time{}},
		// A few hundred packets before the first periodic cut.
		{"cut_in_flight/", long, long.at[reconEvery-300]},
	} {
		seq := NewAnalyzer(base)
		row.tr.feed(seq.Packet)
		seq.Finish()

		t.Run(row.name+"blocking", func(t *testing.T) {
			cfg := base
			reg := obs.NewRegistry()
			cfg.Obs = reg
			backlog := reg.Gauge("zoomlens_reconcile_backlog_cuts", "")
			pa, fed, release, read := hold(cfg, row.tr, row.from)
			select {
			case <-fed:
				release()
				pa.Finish()
				if read().held == 0 {
					t.Fatal("the feed ended before shard 0 reached its hold point")
				}
				t.Fatal("the front end consumed the whole trace while a shard was held: no backpressure")
			case <-time.After(200 * time.Millisecond):
			}
			if c := read(); c.offered-c.held+1 > bound {
				t.Errorf("front end accepted %d frames for the held shard past the one it holds, want at most %d", c.offered-c.held, bound-1)
			}
			if b := backlog.Value(); b > cutQueueDepth+1 || (!row.from.IsZero() && b < 1) {
				t.Errorf("%d cuts outstanding while a shard is held, want 1 to %d", b, cutQueueDepth+1)
			}
			release()
			<-fed
			pa.Finish()
			got := pa.Result()
			if gs, ws := got.Summary(), seq.Summary(); gs != ws {
				t.Errorf("summary after backpressure diverges:\nsequential %+v\nparallel   %+v", ws, gs)
			}
			if !reflect.DeepEqual(got.Meetings(), seq.Meetings()) || !reflect.DeepEqual(streamIDs(got), streamIDs(seq)) {
				t.Error("meetings or stream identifiers after backpressure diverge from the sequential engine's")
			}
			if b := backlog.Value(); b != 0 {
				t.Errorf("%d cuts outstanding after Finish, want 0", b)
			}
		})

		t.Run(row.name+"shedding", func(t *testing.T) {
			cfg := base
			cfg.Shed = true
			pa, fed, release, read := hold(cfg, row.tr, row.from)
			select {
			case <-fed:
			case <-time.After(time.Minute):
				t.Fatal("Packet blocked on a held shard under Config.Shed")
			}
			release()
			pa.Finish()
			a := pa.Result()
			analysed := read().analysed
			kept := a.Packets - a.DroppedByFilter - a.Undecodable
			if a.ShedPackets == 0 || a.ShedPackets != kept-uint64(analysed) {
				t.Errorf("shed %d packets, want the %d kept frames minus the %d analysed", a.ShedPackets, kept, analysed)
			}
			checkConservation(t, "shedding", a)
		})
	}
}

// shardFor is shardOf for a bare Config: the reference shard a test
// expects a frame to land on, computed from a prefix set of its own
// rather than the front end's.
func shardFor(cfg *Config, n int, isTCP bool, src, dst netip.Addr, srcPort, dstPort uint16) int {
	return shardOf(capture.NewPrefixSet(cfg.ZoomNetworks), n, isTCP, src, dst, srcPort, dstPort)
}

// TestQuiesceInterleavingDifferential holds the cut and the quiesce to
// the sequential engine while they interleave every way they can: a
// trace longer than 8 periodic cuts, and every 400 packets — plus just
// before, on and just after each cut, so a quiesce lands with a periodic
// cut pending — one of Snapshot, Checkpoint, CheckpointDelta,
// DrainFeatures and Rotate. Snapshot lines, feature rows, every rotated
// window's report and the final one must be byte-identical to the
// sequential engine's at 2 and 4 workers; each full record must restore
// and re-encode to itself, and a replica rolled forward by each delta
// must re-encode to the live engine's full. Run it under -race: the
// reconciler owns reconState between quiesce points and nothing else may
// touch it.
func TestQuiesceInterleavingDifferential(t *testing.T) {
	tr, opts := seededTrace(t, 20)
	// Pad the meetings with synthetic streams over the same span, merged by
	// capture time, to more than 8 cuts.
	gcfg := trace.DefaultStreamConfig()
	gcfg.Streams, gcfg.ChurnEvery = 100, 0
	gcfg.Packets = 8*reconEvery + reconEvery/2
	gcfg.Start = tr.at[0]
	gcfg.Interval = tr.at[len(tr.at)-1].Sub(tr.at[0]) / time.Duration(gcfg.Packets)
	gcfg.ZoomNet, gcfg.CampusNet = opts.ZoomNet, opts.CampusNet
	gen, err := trace.NewStreamGen(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := &capturedTrace{}
	var rec pcap.Record
	i := 0
	for gen.Next(&rec) == nil {
		for ; i < len(tr.at) && !tr.at[i].After(rec.Timestamp); i++ {
			merged.record(tr.at[i], tr.frames[i])
		}
		merged.record(rec.Timestamp, rec.Data)
	}
	for ; i < len(tr.at); i++ {
		merged.record(tr.at[i], tr.frames[i])
	}
	if n := len(merged.frames); n <= 8*reconEvery {
		t.Fatalf("%d packets: fewer than 8 cuts", n)
	}
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
		FeatureWindow:  time.Second,
	}

	// run feeds the merged trace through a fresh engine, quiescing on the
	// schedule, and returns everything the engine emitted.
	run := func(t *testing.T, workers int) []byte {
		var out bytes.Buffer
		eng := newTestEngine(cfg, workers)
		var replica Engine
		defer func() { Discard(replica) }()
		ops := []func(at time.Time){
			func(at time.Time) {
				for _, ms := range eng.Snapshot(at, 2*time.Second) {
					fmt.Fprintf(&out, "snapshot %+v\n", ms)
				}
			},
			func(time.Time) {
				full := checkpointBytes(t, eng)
				Discard(replica)
				if replica, err = RestoreAnalyzer(bytes.NewReader(full), cfg); err != nil {
					t.Fatalf("restore: %v", err)
				}
				if again := checkpointBytes(t, replica); !bytes.Equal(again, full) {
					t.Fatalf("a restored full re-encodes to %d bytes, the record is %d", len(again), len(full))
				}
			},
			func(time.Time) {
				var delta bytes.Buffer
				if err := eng.CheckpointDelta(&delta); errors.Is(err, ErrDeltaUnavailable) {
					fmt.Fprintln(&out, "delta unavailable")
					return
				} else if err != nil {
					t.Fatal(err)
				}
				if err := replica.ApplyDelta(&delta); err != nil {
					t.Fatalf("apply delta: %v", err)
				}
				if live, rolled := checkpointBytes(t, eng), checkpointBytes(t, replica); !bytes.Equal(live, rolled) {
					t.Fatalf("full + deltas re-encodes to %d bytes, the live engine to %d", len(rolled), len(live))
				}
			},
			func(time.Time) {
				for _, r := range eng.DrainFeatures() {
					fmt.Fprintf(&out, "row %+v\n", r)
				}
			},
			func(at time.Time) {
				out.Write(reportBytes(t, eng.Rotate(at)))
			},
		}
		const every = 400
		near := map[int]int{reconEvery - 1: 0, 0: 1, 1: 2}
		for i := range merged.frames {
			at := merged.at[i]
			eng.Packet(at, merged.frames[i])
			k := i + 1
			if k%every == 0 {
				ops[k/every%len(ops)](at)
			}
			if d, ok := near[k%reconEvery]; ok && k > 1 {
				ops[(k/reconEvery+d)%len(ops)](at)
			}
		}
		eng.Finish()
		for _, r := range eng.DrainFeatures() {
			fmt.Fprintf(&out, "row %+v\n", r)
		}
		out.Write(reportBytes(t, eng.Result()))
		return out.Bytes()
	}

	want := run(t, 1)
	if !bytes.Contains(want, []byte("snapshot ")) || !bytes.Contains(want, []byte("row ")) {
		t.Fatal("the schedule emitted no snapshot line or no feature row: it tests nothing")
	}
	for _, workers := range []int{2, 4} {
		if got := run(t, workers); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: emitted %d bytes that differ from the sequential engine's %d", workers, len(got), len(want))
		}
	}
}

// TestReplayOrder: one cut's chains, each longer than a chunk and of very
// different lengths, replay in strictly increasing sequence order with
// nothing lost or repeated.
func TestReplayOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	weights := []int{70, 1, 25, 4} // per-shard share of the packets
	chains := make([]*shard, len(weights))
	for i := range chains {
		chains[i] = &shard{}
	}
	const n = 6 * obsChunkLen
	for seq := uint64(1); seq <= n; seq++ {
		r, si := rng.Intn(100), 0
		for r >= weights[si] {
			r -= weights[si]
			si++
		}
		chains[si].logObs(&mediaObs{Seq: seq})
	}
	if c := chains[0].obsHead; c == nil || c.next == nil || c.next.next == nil {
		t.Fatal("the heavy shard's chain spans fewer than three chunks")
	}
	heads := make([]*obsChunk, len(chains))
	for i, sh := range chains {
		heads[i] = sh.obsHead
	}
	var got []uint64
	replay(heads, func(o *mediaObs) { got = append(got, o.Seq) })
	if len(got) != n {
		t.Fatalf("replayed %d observations, logged %d", len(got), n)
	}
	for i, s := range got {
		if s != uint64(i+1) {
			t.Fatalf("observation %d has seq %d, want %d", i, s, i+1)
		}
	}
}

// TestRestoreRefusesForeignShardAffinity: a parallel checkpoint whose
// shards hold flows this build's hash routes elsewhere — one written by a
// build with another shardOf, modelled here by two shards trading places —
// is refused as corrupt instead of resumed with every such flow split
// across two shards.
func TestRestoreRefusesForeignShardAffinity(t *testing.T) {
	tr, opts := seededTrace(t, 6)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	pa := NewParallelAnalyzer(cfg, 2)
	defer Discard(pa)
	tr.feed(pa.Packet)
	own, err := RestoreAnalyzer(bytes.NewReader(checkpointBytes(t, pa)), cfg)
	if err != nil {
		t.Fatalf("restoring the engine's own checkpoint: %v", err)
	}
	Discard(own)
	pa.shards[0], pa.shards[1] = pa.shards[1], pa.shards[0]
	if eng, err := RestoreAnalyzer(bytes.NewReader(checkpointBytes(t, pa)), cfg); !errors.Is(err, statecodec.ErrCorrupt) {
		Discard(eng)
		t.Fatalf("restoring shards in each other's places: err = %v, want ErrCorrupt", err)
	}
}

// checkRegistry holds each shard's engine registry to its flow table: every
// stream record's engine is listed under the record's ID, and nothing else
// is listed.
func checkRegistry(t *testing.T, what string, p *pipeline) {
	t.Helper()
	for i, sh := range p.shards {
		owned := 0
		for _, st := range sh.Flows.Streams() {
			if own, _ := st.Owner.(*streamOwner); own != nil {
				owned++
				if sh.StreamMetrics[st.ID] != own.sm {
					t.Errorf("%s: shard %d does not list the engine of stream %v on %v", what, i, st.ID.Key, st.ID.Flow)
				}
			}
		}
		if len(sh.StreamMetrics) != owned {
			t.Errorf("%s: shard %d lists %d engines, its stream records own %d", what, i, len(sh.StreamMetrics), owned)
		}
	}
}

// TestRestoredRegistryFollowsRecords: a metric engine is written inside its
// stream record, so no record can hold an engine its flow table does not
// (a version-12 record could, and restore had to refuse it). Evicting the
// table's streams behind the shard's back — archived, as stream
// conservation demands, but not unlisted — leaves the live registry
// listing engines no record owns; a full record of that state, a delta that
// rewrites engines whose stream records it tombstones, and a delta that
// only tombstones them each restore to a registry that equals the
// restored records. A live engine's registry equals its records
// throughout, and so does a restored one fed the rest of the trace.
func TestRestoredRegistryFollowsRecords(t *testing.T) {
	tr, opts := seededTrace(t, 6)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	n := len(tr.frames)
	far := tr.at[n-1].Add(time.Hour)
	feed := func(a *Analyzer, from, to int) {
		for i := from; i < to; i++ {
			a.Packet(tr.at[i], tr.frames[i])
		}
	}
	restore := func(what string, full []byte, delta *bytes.Buffer) *Analyzer {
		t.Helper()
		eng, err := RestoreAnalyzer(bytes.NewReader(full), cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if delta != nil {
			if err := eng.ApplyDelta(delta); err != nil {
				Discard(eng)
				t.Fatalf("%s: %v", what, err)
			}
		}
		a := eng.(*Analyzer)
		checkRegistry(t, what, a.pipeline)
		if len(a.StreamMetrics) != 0 {
			t.Errorf("%s: %d engines restored, want none: the table's streams were all evicted", what, len(a.StreamMetrics))
		}
		return a
	}
	evictBehind := func(a *Analyzer) {
		a.Flows.EvictIdleFunc(far, func(st *flow.StreamStats) {
			a.Finished = append(a.Finished, FinishedStream{ID: st.ID, FirstSeen: st.FirstSeen, LastSeen: st.LastSeen, Metrics: st.Owner.(*streamOwner).sm})
		})
	}

	live := NewAnalyzer(cfg)
	feed(live, 0, n/2)
	checkRegistry(t, "live", live.pipeline)
	evictBehind(live)
	restored := restore("full record", checkpointBytes(t, live), nil)
	feed(restored, n/2, n)
	checkRegistry(t, "full record, fed the rest", restored.pipeline)

	for _, touched := range []bool{true, false} {
		what := fmt.Sprintf("delta (engines rewritten: %v)", touched)
		live := NewAnalyzer(cfg)
		feed(live, 0, n/2)
		base := bytes.Clone(checkpointBytes(t, live))
		if touched {
			feed(live, n/2, 3*n/4)
		}
		evictBehind(live)
		var delta bytes.Buffer
		if err := live.CheckpointDelta(&delta); err != nil {
			t.Fatal(err)
		}
		restore(what, base, &delta)
	}
}

// TestRestoreRefusesUnconservedTallies: a record whose tallies break packet
// conservation is refused, and valid states at one and two workers and a
// cluster merge still restore.
func TestRestoreRefusesUnconservedTallies(t *testing.T) {
	tr, opts := seededTrace(t, 6)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	n := len(tr.frames)
	feed := func(a *Analyzer, from, to int) {
		for i := from; i < to; i++ {
			a.Packet(tr.at[i], tr.frames[i])
		}
	}

	// A state that does not conserve packets is refused as well, naming
	// both sums: a full record with one bucket's tally patched up (more
	// frames out than in), and a delta with the transport-less tally
	// patched up. The engine's own encode writes and seals each record.
	unconserved := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, statecodec.ErrCorrupt) || !strings.Contains(err.Error(), "frames in but") || !strings.Contains(err.Error(), "in terminal buckets") {
			t.Errorf("%s with a patched tally: err = %v, want ErrCorrupt naming both sums", what, err)
		}
	}
	live := NewAnalyzer(cfg)
	feed(live, 0, n/2)
	live.TCPPackets++
	eng, err := RestoreAnalyzer(bytes.NewReader(checkpointBytes(t, live)), cfg)
	Discard(eng)
	unconserved("full record", err)

	live = NewAnalyzer(cfg)
	feed(live, 0, n/2)
	base := bytes.Clone(checkpointBytes(t, live))
	feed(live, n/2, 3*n/4)
	live.transportless++
	var delta bytes.Buffer
	if err := live.CheckpointDelta(&delta); err != nil {
		t.Fatal(err)
	}
	target, err := RestoreAnalyzer(bytes.NewReader(base), cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = target.ApplyDelta(&delta)
	Discard(target)
	unconserved("delta", err)

	// Valid states still restore: at one worker, at two, and a cluster
	// merge (a splitter, two pre-filtered workers and their replayed
	// observations).
	for _, workers := range []int{1, 2} {
		pa := NewParallelAnalyzer(cfg, workers)
		tr.feed(pa.Packet)
		eng, err := RestoreAnalyzer(bytes.NewReader(checkpointBytes(t, pa)), cfg)
		if err != nil {
			t.Errorf("workers=%d: valid state refused: %v", workers, err)
		}
		Discard(eng)
		Discard(pa)
	}
	r := NewRouter(cfg, 2)
	wcfg := cfg
	wcfg.PreFiltered = true
	parts := []*Analyzer{NewAnalyzer(wcfg), NewAnalyzer(wcfg)}
	// The workers run inline, a frame at a time, so their observations
	// arrive here already in capture order.
	var logged []ClusterObs
	for _, a := range parts {
		if err := a.SetClusterSink(func(o ClusterObs) { logged = append(logged, o) }); err != nil {
			t.Fatal(err)
		}
	}
	for i := range tr.frames {
		if w, keep := r.Route(tr.at[i], tr.frames[i]); keep {
			parts[w].IngestSeq([]pcap.Record{{Timestamp: tr.at[i], Data: tr.frames[i], PacketID: r.Packets}})
		}
	}
	merged := MergeCluster(cfg, parts, r.Head(false), func() (ClusterObs, bool) {
		if len(logged) == 0 {
			return ClusterObs{}, false
		}
		o := logged[0]
		logged = logged[1:]
		return o, true
	})
	checkConservation(t, "cluster merge", merged)
	if eng, err := RestoreAnalyzer(bytes.NewReader(checkpointBytes(t, merged)), cfg); err != nil {
		t.Errorf("cluster merge: valid state refused: %v", err)
	} else {
		Discard(eng)
	}
}

// TestRestoreRefusesUnconservedArchive: a full record whose archive holds
// one more entry than its shard's flow table evicted breaks stream
// conservation and is refused, naming both counts; the same engine's
// record before the patch restores.
func TestRestoreRefusesUnconservedArchive(t *testing.T) {
	tr, opts := seededTrace(t, 6)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	live := NewAnalyzer(cfg)
	tr.feed(live.Packet)
	live.EvictIdle(tr.at[len(tr.at)-1].Add(time.Hour))
	archived := len(live.Finished)
	if archived == 0 {
		t.Fatal("eviction archived nothing: the test is vacuous")
	}
	if eng, err := RestoreAnalyzer(bytes.NewReader(checkpointBytes(t, live)), cfg); err != nil {
		t.Fatalf("valid state refused: %v", err)
	} else {
		Discard(eng)
	}

	live.Finished = append(live.Finished, live.Finished[0])
	eng, err := RestoreAnalyzer(bytes.NewReader(checkpointBytes(t, live)), cfg)
	Discard(eng)
	want := fmt.Sprintf("shard 0 archives %d streams but its flow table evicted %d", archived+1, archived)
	if !errors.Is(err, statecodec.ErrCorrupt) || !strings.Contains(err.Error(), want) {
		t.Errorf("archive with one entry too many: err = %v, want ErrCorrupt saying %q", err, want)
	}
}
