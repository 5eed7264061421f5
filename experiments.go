package zoomlens

import (
	"net/netip"
	"time"

	"zoomlens/internal/analysis"
	"zoomlens/internal/entropy"
	"zoomlens/internal/layers"
	"zoomlens/internal/metrics"
	"zoomlens/internal/netsim"
	"zoomlens/internal/sim"
	"zoomlens/internal/stun"
	"zoomlens/internal/tcprtt"
	"zoomlens/internal/trace"
	"zoomlens/internal/zoom"
)

// This file is the experiment harness: one Run* function per figure of
// the paper, plus RunCampus which backs every campus-trace table and
// figure (Tables 2/3/6, Figures 14–17). Table reproductions live in
// tables.go; benchmarks wiring each experiment to a `go test -bench`
// target live in bench_test.go.

// CampusResult is everything the campus-trace experiments read.
type CampusResult struct {
	Cfg      CampusConfig
	Analyzer *Analyzer

	// AllPerSecond / ZoomPerSecond are monitor packet counts per second
	// (Figure 17: Zoom vs all traffic).
	AllPerSecond  []Sample
	ZoomPerSecond []Sample

	// Meetings scheduled vs observed.
	PlannedMeetings int
}

// RunCampus simulates a campus day at the given scale and runs the full
// analysis pipeline over the border capture.
func RunCampus(cfg CampusConfig) *CampusResult {
	opts := sim.DefaultOptions()
	opts.Seed = cfg.Seed
	opts.Start = cfg.Start
	opts.SkipExternalDelivery = true
	w := sim.NewWorld(opts)

	a := NewAnalyzer(Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	})

	res := &CampusResult{Cfg: cfg, Analyzer: a}
	allBins := map[int64]float64{}
	zoomBins := map[int64]float64{}
	w.Monitor = func(at time.Time, frame []byte) {
		bin := at.Unix()
		allBins[bin]++
		dropped := a.DroppedByFilter
		a.Packet(at, frame)
		if a.DroppedByFilter == dropped {
			zoomBins[bin]++
		}
	}

	plans := trace.Schedule(cfg)
	res.PlannedMeetings = len(plans)
	r := trace.NewRunner(cfg, w)
	r.Install(plans)
	w.Run(cfg.Start.Add(cfg.Duration))
	a.Finish()

	res.AllPerSecond = binsToSeries(allBins)
	res.ZoomPerSecond = binsToSeries(zoomBins)
	return res
}

func binsToSeries(bins map[int64]float64) []Sample {
	if len(bins) == 0 {
		return nil
	}
	var min, max int64
	first := true
	for k := range bins {
		if first {
			min, max = k, k
			first = false
		}
		if k < min {
			min = k
		}
		if k > max {
			max = k
		}
	}
	out := make([]Sample, 0, max-min+1)
	for k := min; k <= max; k++ {
		out = append(out, Sample{At: k * int64(time.Second), Value: bins[k]})
	}
	return out
}

// MediaRateSeries computes Figure 14: total media bit rate per media
// type in one-second bins (Mbit/s).
func (r *CampusResult) MediaRateSeries() map[MediaType][]Sample {
	agg := map[MediaType]map[int64]float64{}
	for _, seg := range r.Analyzer.Streams() {
		id, sm := seg.ID, seg.Metrics
		m := agg[id.Key.Type]
		if m == nil {
			m = map[int64]float64{}
			agg[id.Key.Type] = m
		}
		for _, s := range sm.MediaRate.Samples {
			m[s.Time().Unix()] += s.Value / 1e6
		}
	}
	out := map[MediaType][]Sample{}
	for mt, m := range agg {
		out[mt] = binsToSeries(m)
	}
	return out
}

// Distributions computes the Figure 15 sample sets per media type:
// per-second data rate (Mbit/s), per-second frame rate (fps), frame
// sizes (bytes), and (video only) frame-level jitter (ms).
type Distributions struct {
	DataRateMbps map[MediaType][]float64
	FrameRate    map[MediaType][]float64
	FrameSize    map[MediaType][]float64
	JitterMS     map[MediaType][]float64
}

// Distributions extracts the Figure 15 sample sets. Streams shorter than
// minPackets packets are skipped as noise.
func (r *CampusResult) Distributions(minPackets uint64) *Distributions {
	d := &Distributions{
		DataRateMbps: map[MediaType][]float64{},
		FrameRate:    map[MediaType][]float64{},
		FrameSize:    map[MediaType][]float64{},
		JitterMS:     map[MediaType][]float64{},
	}
	for _, seg := range r.Analyzer.Streams() {
		id, sm := seg.ID, seg.Metrics
		if sm.Packets < minPackets {
			continue
		}
		mt := id.Key.Type
		for _, s := range sm.MediaRate.Samples {
			d.DataRateMbps[mt] = append(d.DataRateMbps[mt], s.Value/1e6)
		}
		// Frame rate per one-second bin, including zero-frame bins
		// (screen sharing spends ~15 % of seconds at 0 fps, §6.2).
		if mt == TypeVideo || mt == TypeScreenShare {
			for _, s := range sm.FrameRate().Bin(r.Cfg.Start, time.Second, "last") {
				d.FrameRate[mt] = append(d.FrameRate[mt], s.Value)
			}
		}
		for _, f := range sm.Frames() {
			d.FrameSize[mt] = append(d.FrameSize[mt], float64(f.Bytes))
		}
		// Jitter only where the clock rate is known (video, §6.2).
		if mt == TypeVideo {
			for _, s := range sm.JitterMS.Bin(r.Cfg.Start, time.Second, "mean") {
				if s.Value > 0 {
					d.JitterMS[mt] = append(d.JitterMS[mt], s.Value)
				}
			}
		}
	}
	return d
}

// JitterCorrelation computes Figure 16: the Pearson correlation between
// per-second video jitter and bit rate, and jitter and frame rate. The
// paper's finding is the *absence* of correlation.
func (r *CampusResult) JitterCorrelation() (rBitrate, rFrameRate float64, n int) {
	var jit1, rate1, jit2, fps1 []float64
	for _, seg := range r.Analyzer.Streams() {
		id, sm := seg.ID, seg.Metrics
		if id.Key.Type != TypeVideo {
			continue
		}
		j := sm.JitterMS.Bin(r.Cfg.Start, time.Second, "mean")
		br := sm.MediaRate.Bin(r.Cfg.Start, time.Second, "mean")
		fr := sm.FrameRate().Bin(r.Cfg.Start, time.Second, "last")
		byTime := map[int64][3]float64{}
		for _, s := range j {
			if s.Value > 0 {
				byTime[s.Time().Unix()] = [3]float64{s.Value, -1, -1}
			}
		}
		for _, s := range br {
			if v, ok := byTime[s.Time().Unix()]; ok {
				v[1] = s.Value / 1e6
				byTime[s.Time().Unix()] = v
			}
		}
		for _, s := range fr {
			if v, ok := byTime[s.Time().Unix()]; ok {
				v[2] = s.Value
				byTime[s.Time().Unix()] = v
			}
		}
		for _, v := range byTime {
			if v[1] >= 0 && v[2] >= 0 {
				jit1 = append(jit1, v[0])
				rate1 = append(rate1, v[1])
				jit2 = append(jit2, v[0])
				fps1 = append(fps1, v[2])
			}
		}
	}
	return analysis.Pearson(jit1, rate1), analysis.Pearson(jit2, fps1), len(jit1)
}

// ValidationResult holds the Figure 10 controlled-experiment outputs:
// passive estimates vs the client's own QoS statistics for one received
// video stream.
type ValidationResult struct {
	// EstimatedFPS is the §5.2 method-1 frame rate, binned per second.
	EstimatedFPS []Sample
	// QoSFPS is the ground truth reported by the receiving client.
	QoSFPS []Sample
	// EstimatedRTTMS is the §5.3 method-1 RTT series (per matched
	// packet pair).
	EstimatedRTTMS []Sample
	// QoSLatencyMS is the client's latency stat (5-second refresh).
	QoSLatencyMS []Sample
	// EstimatedJitterMS is the §5.4 frame-level jitter.
	EstimatedJitterMS []Sample
	// QoSJitterMS is the client's (heavily smoothed) jitter stat.
	QoSJitterMS []Sample

	// FPSMae is the mean absolute error between estimate and QoS fps on
	// matching seconds.
	FPSMae float64
	// CongestionWindows are the injected cross-traffic episodes.
	CongestionWindows []Congestion
}

// validationWorld builds RunValidation's world, not yet run: a two-party
// on-campus meeting whose downlink WAN leg carries two congestion
// episodes. It returns the receiving client and the episodes.
func validationWorld(seconds int, seed int64) (*sim.World, *sim.Client, []Congestion) {
	opts := sim.DefaultOptions()
	opts.Seed = seed
	w := sim.NewWorld(opts)
	m := w.NewMeeting()
	alice := w.NewClient("alice", true)
	bob := w.NewClient("bob", true)
	m.Join(alice, sim.DefaultMediaSet())
	m.Join(bob, sim.DefaultMediaSet())

	// Two cross-traffic injections, like the paper's bandwidth tests
	// (10–20 s each).
	e1 := netsim.Congestion{
		Start:       opts.Start.Add(time.Duration(seconds/4) * time.Second),
		End:         opts.Start.Add(time.Duration(seconds/4+15) * time.Second),
		ExtraDelay:  25 * time.Millisecond,
		ExtraJitter: 35 * time.Millisecond,
		LossRate:    0.02,
	}
	e2 := netsim.Congestion{
		Start:       opts.Start.Add(time.Duration(2*seconds/3) * time.Second),
		End:         opts.Start.Add(time.Duration(2*seconds/3+20) * time.Second),
		ExtraDelay:  35 * time.Millisecond,
		ExtraJitter: 45 * time.Millisecond,
		LossRate:    0.03,
	}
	w.WanDown.Episodes = append(w.WanDown.Episodes, e1, e2)
	return w, bob, []Congestion{e1, e2}
}

// RunValidation reproduces the §5 controlled experiment behind Figures
// 10a–10c: a two-party on-campus meeting of the given duration with two
// injected congestion episodes, analyzed passively at the border and
// compared against the receiving client's QoS log.
func RunValidation(seconds int, seed int64) *ValidationResult {
	w, bob, episodes := validationWorld(seconds, seed)
	opts := w.Opts
	a := NewAnalyzer(Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	})
	w.Monitor = a.Packet
	w.Run(opts.Start.Add(time.Duration(seconds) * time.Second))
	a.Finish()

	res := &ValidationResult{CongestionWindows: episodes}

	// The stream under test: Alice's video as delivered to Bob (the
	// downlink crosses the congested WanDown leg).
	var target *StreamMetrics
	for _, seg := range a.Streams() {
		id, sm := seg.ID, seg.Metrics
		if id.Key.Type != TypeVideo {
			continue
		}
		if id.Flow.Dst == bob.Addr {
			if target == nil || sm.Packets > target.Packets {
				target = sm
			}
		}
	}
	if target == nil {
		return res
	}
	res.EstimatedFPS = target.FrameRate().Bin(opts.Start, time.Second, "last")
	res.EstimatedJitterMS = target.JitterMS.Samples
	res.EstimatedRTTMS = a.Copies.SeriesMS().Samples

	for _, e := range bob.QoS().Entries {
		res.QoSFPS = append(res.QoSFPS, Sample{At: metrics.Nanos(e.Time), Value: e.VideoFPS})
		res.QoSLatencyMS = append(res.QoSLatencyMS, Sample{At: metrics.Nanos(e.Time), Value: e.LatencyMS})
		res.QoSJitterMS = append(res.QoSJitterMS, Sample{At: metrics.Nanos(e.Time), Value: e.JitterMS})
	}

	// FPS accuracy: join estimate and truth on the second.
	est := map[int64]float64{}
	for _, s := range res.EstimatedFPS {
		est[s.Time().Unix()] = s.Value
	}
	var e, q []float64
	for _, s := range res.QoSFPS {
		if v, ok := est[s.Time().Unix()]; ok {
			e = append(e, v)
			q = append(q, s.Value)
		}
	}
	res.FPSMae = analysis.MeanAbsError(e, q)
	return res
}

// P2PEstablishment captures the Figure 2 event sequence as observed at
// the monitor.
type P2PEstablishment struct {
	STUNSeen      bool
	STUNTime      time.Time
	STUNPort      uint16 // server-side port (must be 3478)
	ClientPort    uint16 // ephemeral port announced and later reused
	P2PSeen       bool
	P2PTime       time.Time
	P2PSamePort   bool
	ServerPhase   bool // media via SFU observed before the switch
	RevertedToSFU bool
}

// RunP2PEstablishment reproduces Figure 2: a two-party meeting with one
// external peer establishes P2P after a STUN exchange; a third join
// reverts it.
func RunP2PEstablishment(seed int64) *P2PEstablishment {
	opts := sim.DefaultOptions()
	opts.Seed = seed
	w := sim.NewWorld(opts)
	m := w.NewMeeting()
	m.EnableP2P(10 * time.Second)
	a := w.NewClient("a", true)
	b := w.NewClient("b", false)

	out := &P2PEstablishment{}
	parser := &layers.Parser{}
	w.Monitor = func(at time.Time, frame []byte) {
		var p layers.Packet
		if parser.Parse(frame, &p) != nil || !p.HasUDP {
			return
		}
		if stun.Is(p.Payload) {
			if !out.STUNSeen {
				out.STUNSeen = true
				out.STUNTime = at
				out.STUNPort = p.UDP.DstPort
				out.ClientPort = p.UDP.SrcPort
			}
			return
		}
		zp, err := zoom.ParsePacket(p.Payload, zoom.ModeAuto)
		if err != nil {
			return
		}
		if zp.ServerBased {
			out.ServerPhase = true
			if out.P2PSeen {
				out.RevertedToSFU = true
			}
		} else if !out.P2PSeen {
			out.P2PSeen = true
			out.P2PTime = at
			out.P2PSamePort = p.UDP.SrcPort == out.ClientPort || p.UDP.DstPort == out.ClientPort
		}
	}
	m.Join(a, sim.DefaultMediaSet())
	m.Join(b, sim.DefaultMediaSet())
	w.Run(opts.Start.Add(20 * time.Second))
	// Third participant: revert.
	m.Join(w.NewClient("c", true), sim.DefaultMediaSet())
	w.Run(opts.Start.Add(30 * time.Second))
	return out
}

// EntropyReport is the Figure 5 reproduction: classified byte ranges of
// a single Zoom UDP flow, with the RTP signature locations.
type EntropyReport struct {
	Analyses   []EntropyAnalysis
	RTPOffsets []int
	// Classes indexes findings at the known field offsets of a
	// server-based video packet.
	Classes map[string]FieldClass
}

// entropyFields are the Figure 5 fields RunEntropyAnalysis classifies:
// a report key and the transcription row (sim's own copy of Tables 1–2
// and RFC 3550) that places the field in a server-based video packet.
var entropyFields = []struct {
	key string
	enc *sim.Encapsulation
	row string
}{
	{"sfu.type", &sim.SFUEncapsulation, "Type"},
	{"sfu.seq", &sim.SFUEncapsulation, "Sequence #"},
	{"media.type", &sim.MediaEncapsulation, "Type"},
	{"media.seq", &sim.MediaEncapsulation, "Sequence #"},
	{"media.ts", &sim.MediaEncapsulation, "Timestamp"},
	{"rtp.seq", &sim.RTPHeader, "Sequence number"},
	{"rtp.ts", &sim.RTPHeader, "Timestamp"},
	{"rtp.ssrc", &sim.RTPHeader, "SSRC"},
}

// serverVideoField returns where the row named row of enc sits in a
// server-based video packet's UDP payload: the SFU encapsulation, then
// the media encapsulation, then RTP at Table 2's video offset (Fig. 7).
func serverVideoField(enc *sim.Encapsulation, row string) (off, width int) {
	switch enc {
	case &sim.MediaEncapsulation:
		off = sim.SFUEncapsulation.Len
	case &sim.RTPHeader:
		off = sim.SFUEncapsulation.Len + sim.MediaHeaderLens[sim.KindVideo]
	}
	for _, f := range enc.Fields {
		if f.Name == row {
			return off + f.Offset, f.Width
		}
	}
	panic("zoomlens: no row " + row + " in " + enc.Name)
}

// RunEntropyAnalysis captures one server-based video flow from the
// simulator and runs the §4.2.1 methodology over it.
func RunEntropyAnalysis(seed int64) *EntropyReport {
	sfuType, _ := serverVideoField(&sim.SFUEncapsulation, "Type")
	mediaType, _ := serverVideoField(&sim.MediaEncapsulation, "Type")
	rtpStart := sim.SFUEncapsulation.Len + sim.MediaHeaderLens[sim.KindVideo]
	opts := sim.DefaultOptions()
	opts.Seed = seed
	w := sim.NewWorld(opts)
	var payloads [][]byte
	var flowSrc uint16
	parser := &layers.Parser{}
	w.Monitor = func(at time.Time, frame []byte) {
		var p layers.Packet
		if parser.Parse(frame, &p) != nil || !p.HasUDP {
			return
		}
		// A single uplink UDP flow, as in §4.2.1 ("a single UDP stream"):
		// lock onto the first video-bearing flow seen.
		if p.UDP.DstPort != zoom.ServerMediaPort || len(p.Payload) <= rtpStart ||
			p.Payload[sfuType] != sim.SFUTypeMedia || p.Payload[mediaType] != uint8(sim.KindVideo) {
			return
		}
		if flowSrc == 0 {
			flowSrc = p.UDP.SrcPort
		}
		if p.UDP.SrcPort != flowSrc {
			return
		}
		cp := make([]byte, len(p.Payload))
		copy(cp, p.Payload)
		payloads = append(payloads, cp)
	}
	m := w.NewMeeting()
	m.Join(w.NewClient("a", true), sim.DefaultMediaSet())
	m.Join(w.NewClient("b", true), sim.DefaultMediaSet())
	w.Run(opts.Start.Add(30 * time.Second))

	rep := &EntropyReport{Classes: map[string]FieldClass{}}
	rep.Analyses = EntropySweep(payloads, 64)
	for _, sig := range entropy.FindRTP(payloads, 64) {
		rep.RTPOffsets = append(rep.RTPOffsets, sig.Offset)
	}
	class := func(off, width int) FieldClass {
		return entropy.Classify(entropy.Extract(payloads, off, width)).Class
	}
	for _, f := range entropyFields {
		rep.Classes[f.key] = class(serverVideoField(f.enc, f.row))
	}
	rep.Classes["payload"] = class(100, 4)
	return rep
}

// TCPRTTResult is the Figure 11 reproduction: the latency decomposition
// via the control connection.
type TCPRTTResult struct {
	PerClient map[string]tcprtt.SplitStats
}

// RunTCPRTT measures control-connection RTTs for a two-party meeting.
func RunTCPRTT(seconds int, seed int64) *TCPRTTResult {
	opts := sim.DefaultOptions()
	opts.Seed = seed
	w := sim.NewWorld(opts)
	a := NewAnalyzer(Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	})
	w.Monitor = a.Packet
	m := w.NewMeeting()
	m.Join(w.NewClient("a", true), sim.DefaultMediaSet())
	m.Join(w.NewClient("b", true), sim.DefaultMediaSet())
	w.Run(opts.Start.Add(time.Duration(seconds) * time.Second))
	a.Finish()

	out := &TCPRTTResult{PerClient: map[string]tcprtt.SplitStats{}}
	for client, tr := range a.TCP {
		out.PerClient[client.String()] = tr.Split()
	}
	return out
}
