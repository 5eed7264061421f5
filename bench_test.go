package zoomlens

// Benchmark harness: one target per table and figure of the paper. Each
// benchmark regenerates its experiment's rows/series and reports the
// headline quantities as benchmark metrics; the first iteration prints
// the reproduced table or series summary to stdout so that
//
//	go test -bench=. -benchmem
//
// emits the full set of reproductions. EXPERIMENTS.md records the
// paper-vs-measured comparison in prose.
//
// Campus-backed targets share one simulated campus excerpt (the smallCampus
// fixture) — the workload's *shape* carries the paper's findings; scale is
// configurable via the example programs for longer runs.

import (
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"zoomlens/internal/sim"
	"zoomlens/internal/trace"
)

var printOnce sync.Map

func printReport(key, body string) {
	if _, done := printOnce.LoadOrStore(key, true); !done {
		fmt.Printf("\n===== %s =====\n%s\n", key, body)
	}
}

// BenchmarkTable1HeaderFields regenerates Table 1 and measures the
// documented header layout written by the simulator's writer and read
// back by the parser.
func BenchmarkTable1HeaderFields(b *testing.B) {
	printReport("Table 1", Table1().String())
	h := sim.Header{Kind: sim.KindVideo, SFUSeq: 7, FromSFU: true, MediaSeq: 9, MediaTS: 90000,
		FrameSeq: 3, FramePkts: 2, PT: sim.PTVideoMain, SSRC: 16778241}
	payload := make([]byte, 1000)
	wire := make([]byte, 0, h.Len()+len(payload))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire = append(sim.AppendHeaders(wire[:0], &h), payload...)
		if _, err := ParseZoomPacket(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2EncapTypes regenerates Table 2 from the campus run.
func BenchmarkTable2EncapTypes(b *testing.B) {
	r := campus(b)
	printReport("Table 2", Table2(r).String())
	shares := Table2Shares(r)
	var mediaPct float64
	for _, s := range shares {
		if s.Type == TypeVideo || s.Type == TypeAudio || s.Type == TypeScreenShare {
			mediaPct += s.PacketsPct
		}
	}
	b.ReportMetric(mediaPct, "media-pkt-%")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Table2Shares(r)
	}
}

// BenchmarkTable3PayloadTypes regenerates Table 3.
func BenchmarkTable3PayloadTypes(b *testing.B) {
	r := campus(b)
	printReport("Table 3", Table3(r).String())
	shares := Table3Shares(r)
	b.ReportMetric(shares[0].PacketsPct, "top-substream-pkt-%")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Table3Shares(r)
	}
}

// BenchmarkTable4MetricMatrix regenerates the metric capability matrix.
func BenchmarkTable4MetricMatrix(b *testing.B) {
	printReport("Table 4", Table4().String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Table4Matrix()) != 6 {
			b.Fatal("matrix rows")
		}
	}
}

// BenchmarkTable5P4Resources regenerates the Tofino resource model.
func BenchmarkTable5P4Resources(b *testing.B) {
	printReport("Table 5", Table5())
	reports := Table5Reports()
	b.ReportMetric(reports[1].SRAMPct, "p2p-sram-%")
	b.ReportMetric(reports[1].HashUnitsPct, "p2p-hash-%")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Table5Reports()
	}
}

// BenchmarkTable6CaptureSummary regenerates the capture summary.
func BenchmarkTable6CaptureSummary(b *testing.B) {
	r := campus(b)
	printReport("Table 6", Table6(r).String())
	s := r.Analyzer.Summary()
	b.ReportMetric(float64(s.Packets), "zoom-packets")
	b.ReportMetric(float64(s.Streams), "rtp-streams")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Analyzer.Summary()
	}
}

// BenchmarkTable7ServerLocations regenerates the infrastructure survey
// (the timed body is the full 427k-address rDNS+Geo sweep).
func BenchmarkTable7ServerLocations(b *testing.B) {
	inv := BuildInventory(1)
	printReport("Table 7", Table7(inv).String())
	res := inv.Survey()
	b.ReportMetric(float64(res.TotalMMR), "mmrs")
	b.ReportMetric(float64(res.TotalZC), "zcs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = inv.Survey()
	}
}

// BenchmarkFig2P2PEstablishment reproduces the Figure 2 sequence.
func BenchmarkFig2P2PEstablishment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := RunP2PEstablishment(int64(i + 1))
		if !p.STUNSeen || !p.P2PSeen || !p.P2PSamePort || !p.RevertedToSFU {
			b.Fatalf("sequence incomplete: %+v", p)
		}
		if i == 0 {
			printReport("Figure 2", fmt.Sprintf(
				"STUN exchange at %s on port %d (client port %d)\nP2P media at %s on the same client port: %v\nreverted to SFU after third join: %v",
				p.STUNTime.Format("15:04:05.000"), p.STUNPort, p.ClientPort,
				p.P2PTime.Format("15:04:05.000"), p.P2PSamePort, p.RevertedToSFU))
			b.ReportMetric(p.P2PTime.Sub(p.STUNTime).Seconds(), "stun-to-p2p-s")
		}
	}
}

// BenchmarkFig5EntropyAnalysis reproduces the header classification.
func BenchmarkFig5EntropyAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := RunEntropyAnalysis(int64(i + 1))
		if i == 0 {
			body := ""
			for _, k := range []string{"sfu.type", "sfu.seq", "media.type", "media.seq", "media.ts", "rtp.seq", "rtp.ts", "rtp.ssrc", "payload"} {
				body += fmt.Sprintf("%-11s %v\n", k, rep.Classes[k])
			}
			body += fmt.Sprintf("RTP signature offsets: %v (true RTP header at 32, seq field at 34)", rep.RTPOffsets)
			printReport("Figure 5", body)
			found := false
			for _, off := range rep.RTPOffsets {
				if off == 34 {
					found = true
				}
			}
			if !found {
				b.Fatal("RTP signature not recovered")
			}
		}
	}
}

func fpsSeriesSummary(v *ValidationResult) string {
	body := "t[s]  est-fps  qos-fps\n"
	qos := map[int64]float64{}
	for _, s := range v.QoSFPS {
		qos[s.Time().Unix()] = s.Value
	}
	if len(v.EstimatedFPS) == 0 {
		return body
	}
	t0 := v.EstimatedFPS[0].Time().Unix()
	for i, s := range v.EstimatedFPS {
		if i%15 != 0 {
			continue
		}
		q, ok := qos[s.Time().Unix()]
		if !ok {
			continue
		}
		body += fmt.Sprintf("%4d  %7.1f  %7.1f\n", s.Time().Unix()-t0, s.Value, q)
	}
	return body
}

// BenchmarkFig10aFrameRateAccuracy validates frame-rate estimation
// against the client's QoS data.
func BenchmarkFig10aFrameRateAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := RunValidation(180, int64(i+1))
		if i == 0 {
			printReport("Figure 10a", fpsSeriesSummary(v)+fmt.Sprintf("frame-rate MAE = %.2f fps", v.FPSMae))
			b.ReportMetric(v.FPSMae, "fps-mae")
			if math.IsNaN(v.FPSMae) || v.FPSMae > 5 {
				b.Fatalf("fps MAE = %v", v.FPSMae)
			}
		}
	}
}

// BenchmarkFig10bLatencyAccuracy validates RTT estimation density and
// agreement.
func BenchmarkFig10bLatencyAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := RunValidation(180, int64(i+100))
		if i == 0 {
			var estMean float64
			for _, s := range v.EstimatedRTTMS {
				estMean += s.Value
			}
			estMean /= float64(len(v.EstimatedRTTMS))
			var qosMean float64
			for _, s := range v.QoSLatencyMS {
				qosMean += s.Value
			}
			qosMean /= float64(len(v.QoSLatencyMS))
			printReport("Figure 10b", fmt.Sprintf(
				"estimate: %d samples, mean %.1f ms (monitor↔SFU RTT)\nZoom QoS: %d samples (5 s refresh), mean %.1f ms (client↔SFU RTT)",
				len(v.EstimatedRTTMS), estMean, len(v.QoSLatencyMS), qosMean))
			b.ReportMetric(estMean, "est-rtt-ms")
			b.ReportMetric(float64(len(v.EstimatedRTTMS))/float64(len(v.QoSLatencyMS)), "sample-density-ratio")
		}
	}
}

// BenchmarkFig10cJitterAccuracy reproduces the jitter comparison,
// including the paper's surprising finding that Zoom's own jitter stat
// stays tiny under congestion while the RFC 3550 estimate responds.
func BenchmarkFig10cJitterAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := RunValidation(180, int64(i+200))
		if i == 0 {
			maxEst, maxQoS := 0.0, 0.0
			for _, s := range v.EstimatedJitterMS {
				if s.Value > maxEst {
					maxEst = s.Value
				}
			}
			for _, s := range v.QoSJitterMS {
				if s.Value > maxQoS {
					maxQoS = s.Value
				}
			}
			printReport("Figure 10c", fmt.Sprintf(
				"RFC 3550 frame-level jitter: max %.1f ms during congestion\nZoom QoS jitter: max %.2f ms (never responds — the paper's observation)",
				maxEst, maxQoS))
			b.ReportMetric(maxEst, "est-jitter-max-ms")
			b.ReportMetric(maxQoS, "qos-jitter-max-ms")
			if maxQoS > 3 {
				b.Fatalf("QoS jitter should stay tiny, got %v", maxQoS)
			}
		}
	}
}

// BenchmarkFig11TCPRTT reproduces the latency decomposition via the TCP
// control connection.
func BenchmarkFig11TCPRTT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := RunTCPRTT(30, int64(i+1))
		if i == 0 {
			body := ""
			for client, sp := range r.PerClient {
				body += fmt.Sprintf("%s: to-server %.1f ms (%d samples), to-client %.1f ms (%d samples)\n",
					client,
					float64(sp.ToServerMean)/1e6, sp.ToServerSamples,
					float64(sp.ToClientMean)/1e6, sp.ToClientSamples)
			}
			printReport("Figure 11", body)
		}
	}
}

// BenchmarkFig14MediaBitRate regenerates the per-media-type rate series.
func BenchmarkFig14MediaBitRate(b *testing.B) {
	r := campus(b)
	series := r.MediaRateSeries()
	if _, done := printOnce.LoadOrStore("Figure 14", true); !done {
		body := "per-type media rate (Mbit/s), 30 s resolution:\nt[s]   video   audio  screen\n"
		idx := map[MediaType]map[int64]float64{}
		for mt, ss := range series {
			idx[mt] = map[int64]float64{}
			for _, s := range ss {
				idx[mt][s.Time().Unix()] = s.Value
			}
		}
		start := r.Cfg.Start.Unix()
		for off := int64(0); off < int64(r.Cfg.Duration/time.Second); off += 30 {
			body += fmt.Sprintf("%4d  %6.2f  %6.2f  %6.2f\n", off,
				idx[TypeVideo][start+off], idx[TypeAudio][start+off], idx[TypeScreenShare][start+off])
		}
		fmt.Printf("\n===== Figure 14 =====\n%s\n", body)
	}
	var vSum float64
	for _, s := range series[TypeVideo] {
		vSum += s.Value
	}
	b.ReportMetric(vSum/float64(len(series[TypeVideo])+1), "video-mbps-mean")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.MediaRateSeries()
	}
}

// BenchmarkFig15Distributions regenerates the four CDFs.
func BenchmarkFig15Distributions(b *testing.B) {
	r := campus(b)
	d := r.Distributions(100)
	if _, done := printOnce.LoadOrStore("Figure 15", true); !done {
		body := ""
		q := func(vals []float64, at float64) float64 {
			if len(vals) == 0 {
				return math.NaN()
			}
			return NewCDF(vals).Quantile(at)
		}
		body += fmt.Sprintf("15a data rate Mbit/s  p50: video %.3f, audio %.3f, screen %.3f\n",
			q(d.DataRateMbps[TypeVideo], .5), q(d.DataRateMbps[TypeAudio], .5), q(d.DataRateMbps[TypeScreenShare], .5))
		body += fmt.Sprintf("15b frame rate fps    p50: video %.1f, screen %.1f; screen zero-fps share %.2f\n",
			q(d.FrameRate[TypeVideo], .5), q(d.FrameRate[TypeScreenShare], .5), zeroShare(d.FrameRate[TypeScreenShare]))
		body += fmt.Sprintf("15c frame size B      p50: video %.0f, screen %.0f; video P(<2000) %.2f, screen P(<500) %.2f\n",
			q(d.FrameSize[TypeVideo], .5), q(d.FrameSize[TypeScreenShare], .5),
			NewCDF(d.FrameSize[TypeVideo]).At(2000), NewCDF(d.FrameSize[TypeScreenShare]).At(500))
		body += fmt.Sprintf("15d video jitter ms   p50: %.2f, P(<20ms): %.2f, P(>40ms): %.3f\n",
			q(d.JitterMS[TypeVideo], .5), NewCDF(d.JitterMS[TypeVideo]).At(20), 1-NewCDF(d.JitterMS[TypeVideo]).At(40))
		fmt.Printf("\n===== Figure 15 =====\n%s\n", body)
	}
	b.ReportMetric(NewCDF(d.FrameSize[TypeVideo]).At(2000), "video-frames-under-2000B")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Distributions(100)
	}
}

func zeroShare(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	n := 0
	for _, v := range vals {
		if v == 0 {
			n++
		}
	}
	return float64(n) / float64(len(vals))
}

// BenchmarkFig16JitterCorrelation regenerates the (absence of)
// correlation between jitter and bit rate / frame rate.
func BenchmarkFig16JitterCorrelation(b *testing.B) {
	r := campus(b)
	rBit, rFps, n := r.JitterCorrelation()
	printReport("Figure 16", fmt.Sprintf(
		"jitter↔bitrate Pearson r = %.3f, jitter↔frame-rate r = %.3f over %d stream-seconds\n(the paper's finding: no meaningful correlation — poor rate/fps is usually user-driven, not network-driven)",
		rBit, rFps, n))
	b.ReportMetric(math.Abs(rBit), "abs-r-bitrate")
	b.ReportMetric(math.Abs(rFps), "abs-r-framerate")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = r.JitterCorrelation()
	}
}

// benchTrace lazily records one simulated two-meeting capture for the
// throughput benchmarks so every worker-count variant replays identical
// packets.
var benchTraceOnce sync.Once
var benchTraceAt []time.Time
var benchTraceFrames [][]byte
var benchTraceOpts WorldOptions

func benchTrace(b testing.TB) ([]time.Time, [][]byte, Config) {
	benchTraceOnce.Do(func() {
		opts := DefaultWorldOptions()
		w := NewWorld(opts)
		w.Monitor = func(at time.Time, frame []byte) {
			cp := make([]byte, len(frame))
			copy(cp, frame)
			benchTraceAt = append(benchTraceAt, at)
			benchTraceFrames = append(benchTraceFrames, cp)
		}
		m1 := w.NewMeeting()
		m1.Join(w.NewClient("a", true), DefaultMediaSet())
		m1.Join(w.NewClient("b", true), DefaultMediaSet())
		m1.Join(w.NewClient("c", true), DefaultMediaSet())
		m2 := w.NewMeeting()
		m2.Join(w.NewClient("d", true), DefaultMediaSet())
		m2.Join(w.NewClient("e", false), DefaultMediaSet())
		w.Run(opts.Start.Add(30 * time.Second))
		benchTraceOpts = opts
	})
	if len(benchTraceFrames) == 0 {
		b.Fatal("empty benchmark trace")
	}
	return benchTraceAt, benchTraceFrames, Config{
		ZoomNetworks:   []netip.Prefix{benchTraceOpts.ZoomNet},
		CampusNetworks: []netip.Prefix{benchTraceOpts.CampusNet},
	}
}

// BenchmarkAnalyzerPipeline compares the sequential analyzer against the
// sharded parallel pipeline at several worker counts on one recorded
// trace. The pkts/s metric is the headline: with ≥2 cores the sharded
// path should scale near-linearly until dispatch (parse + classify +
// route, single-threaded by design so the stateful capture filter sees
// packets in order) becomes the bottleneck.
func BenchmarkAnalyzerPipeline(b *testing.B) {
	at, frames, cfg := benchTrace(b)
	var bytes int64
	for _, f := range frames {
		bytes += int64(len(f))
	}
	pps := func(b *testing.B) {
		b.ReportMetric(float64(len(frames))*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
	}

	b.Run("sequential", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			a := NewAnalyzer(cfg)
			for j := range frames {
				a.Packet(at[j], frames[j])
			}
			a.Finish()
		}
		pps(b)
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				pa := NewParallelAnalyzer(cfg, workers)
				for j := range frames {
					pa.Packet(at[j], frames[j])
				}
				pa.Finish()
			}
			pps(b)
		})
	}
}

// BenchmarkFig17PacketRate regenerates the all-vs-Zoom packet rates.
func BenchmarkFig17PacketRate(b *testing.B) {
	r := campus(b)
	var all, zm float64
	for _, s := range r.AllPerSecond {
		all += s.Value
	}
	for _, s := range r.ZoomPerSecond {
		zm += s.Value
	}
	secs := float64(len(r.AllPerSecond))
	printReport("Figure 17", fmt.Sprintf(
		"mean packet rate at monitor: all %.0f pps, Zoom %.0f pps (%.1f%% of traffic filtered through)",
		all/secs, zm/secs, 100*zm/all))
	b.ReportMetric(all/secs, "all-pps")
	b.ReportMetric(zm/secs, "zoom-pps")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n float64
		for _, s := range r.ZoomPerSecond {
			n += s.Value
		}
		_ = n
	}
}

// BenchmarkSimulateCampus times the simulator alone: a two-minute campus
// day in the benchmark harness's shape (60 meetings an hour at peak,
// off-campus delivery elided), every tapped frame discarded. It reports
// tapped frames per second and the cost and heap allocations per tapped
// frame.
func BenchmarkSimulateCampus(b *testing.B) {
	cfg := trace.DefaultConfig()
	cfg.Duration = 2 * time.Minute
	cfg.MeetingsPerHourPeak = 60
	frames := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simulateCampus(cfg, true, func(time.Time, []byte) { frames++ })
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames), "ns/frame")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(frames), "allocs/frame")
}
