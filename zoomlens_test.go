package zoomlens

import (
	"math"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// smallCampus returns a fast (seconds-scale) campus configuration that
// still includes an hour-boundary spike: 10:00 ± a few minutes.
func smallCampus() CampusConfig {
	cfg := DefaultCampusConfig()
	cfg.Start = time.Date(2022, 5, 5, 9, 58, 0, 0, time.UTC)
	cfg.Duration = 5 * time.Minute
	cfg.MeetingsPerHourPeak = 20
	cfg.BackgroundPPS = 4000
	return cfg
}

var (
	campusOnce sync.Once
	campusRes  *CampusResult
)

func campus(t testing.TB) *CampusResult {
	campusOnce.Do(func() { campusRes = RunCampus(smallCampus()) })
	if campusRes == nil {
		t.Fatal("campus run failed")
	}
	return campusRes
}

func TestRunCampusBasics(t *testing.T) {
	r := campus(t)
	sum := r.Analyzer.Summary()
	if sum.Packets < 10_000 {
		t.Fatalf("packets = %d", sum.Packets)
	}
	if sum.Streams == 0 {
		t.Fatalf("streams=%d", sum.Streams)
	}
	// The meeting partition's first row against the simulator's truth:
	// every planned meeting is inferred as one meeting, no more, no fewer.
	if r.PlannedMeetings == 0 || sum.Meetings != r.PlannedMeetings {
		t.Fatalf("inferred %d meetings, the simulator planned %d", sum.Meetings, r.PlannedMeetings)
	}
	// Figure 17 shape: Zoom is a subset of all traffic.
	if len(r.AllPerSecond) == 0 || len(r.ZoomPerSecond) == 0 {
		t.Fatal("missing per-second series")
	}
	var all, zm float64
	for _, s := range r.AllPerSecond {
		all += s.Value
	}
	for _, s := range r.ZoomPerSecond {
		zm += s.Value
	}
	if !(zm < all) || zm == 0 {
		t.Errorf("zoom=%v all=%v", zm, all)
	}
}

func TestCampusFigure14Shape(t *testing.T) {
	r := campus(t)
	series := r.MediaRateSeries()
	sumOf := func(mt MediaType) float64 {
		var s float64
		for _, x := range series[mt] {
			s += x.Value
		}
		return s
	}
	video, audio := sumOf(TypeVideo), sumOf(TypeAudio)
	if video == 0 || audio == 0 {
		t.Fatalf("video=%v audio=%v", video, audio)
	}
	if video <= 3*audio {
		t.Errorf("video (%v) should dwarf audio (%v)", video, audio)
	}
}

func TestCampusFigure15Distributions(t *testing.T) {
	r := campus(t)
	d := r.Distributions(100)
	if len(d.DataRateMbps[TypeVideo]) == 0 || len(d.FrameSize[TypeVideo]) == 0 {
		t.Fatal("missing video distributions")
	}
	// 15a: median audio rate well below median video rate.
	if len(d.DataRateMbps[TypeAudio]) > 0 {
		va := NewCDF(d.DataRateMbps[TypeVideo]).Quantile(0.5)
		au := NewCDF(d.DataRateMbps[TypeAudio]).Quantile(0.5)
		if va <= au {
			t.Errorf("median rates: video %v vs audio %v", va, au)
		}
	}
	// 15c: most video frames under 2000 bytes.
	fs := NewCDF(d.FrameSize[TypeVideo])
	if p := fs.At(2000); p < 0.5 {
		t.Errorf("P(video frame < 2000B) = %v", p)
	}
	// 15d: most video jitter below 20 ms.
	if len(d.JitterMS[TypeVideo]) > 0 {
		j := NewCDF(d.JitterMS[TypeVideo])
		if p := j.At(20); p < 0.7 {
			t.Errorf("P(jitter < 20ms) = %v", p)
		}
	}
	// 15b: screen-share frame rates include zero bins when present.
	if ss := d.FrameRate[TypeScreenShare]; len(ss) > 20 {
		zeros := 0
		for _, v := range ss {
			if v == 0 {
				zeros++
			}
		}
		if zeros == 0 {
			t.Error("no zero-fps screen share samples")
		}
	}
}

func TestCampusFigure16NoCorrelation(t *testing.T) {
	r := campus(t)
	rBit, rFps, n := r.JitterCorrelation()
	if n < 50 {
		t.Skipf("only %d joined samples", n)
	}
	if math.Abs(rBit) > 0.4 {
		t.Errorf("jitter-bitrate r = %v, want weak", rBit)
	}
	if math.Abs(rFps) > 0.4 {
		t.Errorf("jitter-framerate r = %v, want weak", rFps)
	}
}

func TestRunValidationFigure10(t *testing.T) {
	v := RunValidation(120, 3)
	if len(v.EstimatedFPS) == 0 || len(v.QoSFPS) == 0 {
		t.Fatal("missing fps series")
	}
	if len(v.EstimatedRTTMS) == 0 || len(v.QoSLatencyMS) == 0 {
		t.Fatal("missing latency series")
	}
	if len(v.EstimatedJitterMS) == 0 || len(v.QoSJitterMS) == 0 {
		t.Fatal("missing jitter series")
	}
	// Figure 10a: estimate tracks ground truth closely.
	if v.FPSMae > 4 {
		t.Errorf("fps MAE = %v, want < 4", v.FPSMae)
	}
	// Our estimate yields far more latency samples than the 5s-refresh
	// QoS data (the paper's point in §5.3).
	if len(v.EstimatedRTTMS) < 5*len(v.QoSLatencyMS) {
		t.Errorf("rtt samples %d vs qos %d: passive estimation should be denser", len(v.EstimatedRTTMS), len(v.QoSLatencyMS))
	}
	// Figure 10c: Zoom's reported jitter stays tiny even under
	// congestion, while our estimate responds (the observed mismatch).
	maxQoS := 0.0
	for _, s := range v.QoSJitterMS {
		if s.Value > maxQoS {
			maxQoS = s.Value
		}
	}
	maxEst := 0.0
	for _, s := range v.EstimatedJitterMS {
		if s.Value > maxEst {
			maxEst = s.Value
		}
	}
	if maxQoS > 3 {
		t.Errorf("QoS jitter max = %v ms, want ≤ ~2 (heavy smoothing)", maxQoS)
	}
	if maxEst < 2*maxQoS {
		t.Errorf("estimate max %v vs qos max %v: estimate should exceed", maxEst, maxQoS)
	}
	// Frame rate must dip during at least one congestion window.
	dip := false
	for _, w := range v.CongestionWindows {
		var in, out []float64
		for _, s := range v.EstimatedFPS {
			if s.Time().After(w.Start.Add(3*time.Second)) && s.Time().Before(w.End) {
				in = append(in, s.Value)
			} else if s.Time().Before(w.Start) && s.Time().After(w.Start.Add(-15*time.Second)) {
				out = append(out, s.Value)
			}
		}
		if len(in) > 0 && len(out) > 0 && avg(in) < avg(out)-4 {
			dip = true
		}
	}
	if !dip {
		t.Error("no frame-rate dip during congestion windows")
	}
}

func TestRunP2PEstablishmentFigure2(t *testing.T) {
	p := RunP2PEstablishment(5)
	if !p.STUNSeen {
		t.Fatal("no STUN exchange")
	}
	if p.STUNPort != 3478 {
		t.Errorf("stun port = %d", p.STUNPort)
	}
	if !p.P2PSeen {
		t.Fatal("no P2P media")
	}
	if !p.STUNTime.Before(p.P2PTime) {
		t.Error("STUN did not precede P2P")
	}
	if !p.P2PSamePort {
		t.Error("P2P flow did not reuse the STUN-announced port")
	}
	if !p.ServerPhase {
		t.Error("no server-based phase observed")
	}
	if !p.RevertedToSFU {
		t.Error("meeting did not revert to SFU after third join")
	}
}

func TestRunEntropyAnalysisFigure5(t *testing.T) {
	rep := RunEntropyAnalysis(2)
	if len(rep.Analyses) == 0 {
		t.Fatal("no analyses")
	}
	wantCounter := []string{"sfu.seq", "media.seq", "media.ts", "rtp.seq", "rtp.ts"}
	for _, k := range wantCounter {
		if got := rep.Classes[k]; got.String() != "counter" {
			t.Errorf("%s classified %v, want counter", k, got)
		}
	}
	for _, k := range []string{"sfu.type", "media.type", "rtp.ssrc"} {
		if got := rep.Classes[k].String(); got != "constant" && got != "identifier" {
			t.Errorf("%s classified %v, want constant/identifier", k, got)
		}
	}
	if got := rep.Classes["payload"].String(); got != "random" {
		t.Errorf("payload classified %v, want random", got)
	}
	// The RTP signature search must find the true header offset 34.
	found := false
	for _, off := range rep.RTPOffsets {
		if off == 34 {
			found = true
		}
	}
	if !found {
		t.Errorf("RTP signature offsets = %v, want to include 34", rep.RTPOffsets)
	}
}

func TestRunTCPRTTFigure11(t *testing.T) {
	r := RunTCPRTT(20, 4)
	if len(r.PerClient) == 0 {
		t.Fatal("no clients")
	}
	for client, sp := range r.PerClient {
		if sp.ToServerSamples == 0 || sp.ToClientSamples == 0 {
			t.Errorf("%s: %+v", client, sp)
		}
		if sp.ToServerMean <= sp.ToClientMean {
			t.Errorf("%s: server leg %v ≤ client leg %v", client, sp.ToServerMean, sp.ToClientMean)
		}
	}
}

func TestTablesRender(t *testing.T) {
	r := campus(t)
	for name, s := range map[string]string{
		"t1": Table1().String(),
		"t2": Table2(r).String(),
		"t3": Table3(r).String(),
		"t4": Table4().String(),
		"t5": Table5(),
		"t6": Table6(r).String(),
		"t7": Table7(BuildInventory(1)).String(),
	} {
		if len(s) < 50 || !strings.Contains(s, "Table") {
			t.Errorf("%s render too small:\n%s", name, s)
		}
	}
}

func TestTable2SharesShape(t *testing.T) {
	r := campus(t)
	shares := Table2Shares(r)
	if len(shares) == 0 {
		t.Fatal("no shares")
	}
	if shares[0].Type != TypeVideo {
		t.Errorf("dominant type = %v", shares[0].Type)
	}
	var pkts, bytes float64
	for _, s := range shares {
		pkts += s.PacketsPct
		bytes += s.BytesPct
	}
	// Paper: decodable media ≈ 90 % of packets, ≈ 94.5 % of bytes (the
	// rest is control). Accept a generous band around that shape.
	if pkts < 55 || pkts > 99 {
		t.Errorf("decodable packet share = %v%%", pkts)
	}
	if bytes < 70 || bytes > 100 {
		t.Errorf("decodable byte share = %v%%", bytes)
	}
	if bytes <= pkts {
		t.Errorf("byte share (%v) should exceed packet share (%v): control packets are small", bytes, pkts)
	}
}

func TestTable3SharesShape(t *testing.T) {
	r := campus(t)
	shares := Table3Shares(r)
	if shares[0].Substream.String() != "video/main" {
		t.Errorf("top substream = %v", shares[0].Substream)
	}
	var videoMainPct, audioSpeakPct float64
	for _, s := range shares {
		switch s.Substream.String() {
		case "video/main":
			videoMainPct = s.PacketsPct
		case "audio/speaking":
			audioSpeakPct = s.PacketsPct
		}
	}
	if videoMainPct <= audioSpeakPct {
		t.Errorf("video main (%v%%) should exceed audio speaking (%v%%)", videoMainPct, audioSpeakPct)
	}
}

func TestTable7Totals(t *testing.T) {
	res := Table7Survey(BuildInventory(1))
	if res.TotalMMR != 5452 || res.TotalZC != 256 {
		t.Errorf("totals = %d/%d", res.TotalMMR, res.TotalZC)
	}
}

// TestDefaultZoomNetworks: the start-up list is the inventory's prefixes,
// in the inventory's order, though it is computed without the inventory.
func TestDefaultZoomNetworks(t *testing.T) {
	nets := DefaultZoomNetworks()
	if len(nets) != 117 {
		t.Errorf("networks = %d, want 117", len(nets))
	}
	var want []netip.Prefix
	for _, n := range BuildInventory(1).Networks {
		want = append(want, n.Prefix)
	}
	if !slices.Equal(nets, want) {
		t.Errorf("DefaultZoomNetworks() = %v,\nthe inventory's prefixes are %v", nets, want)
	}
}

// BenchmarkDefaultZoomNetworks is what every tool pays at start-up for
// its prefix list.
func BenchmarkDefaultZoomNetworks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(DefaultZoomNetworks()) != 117 {
			b.Fatal("wrong list")
		}
	}
}

func avg(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
