// Campus reproduces the paper's §6 campus study at configurable scale:
// it simulates a working-day Zoom workload at a campus border, runs the
// full passive analysis pipeline over the capture, and prints the
// campus-trace tables and figures (Tables 2/3/6, Figures 14–17).
//
// Run with (a ~15-minute excerpt by default; raise -duration and -rate
// for bigger runs):
//
//	go run ./examples/campus [-duration 15m] [-rate 20] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"math"
	"strings"
	"time"

	"zoomlens"
	"zoomlens/internal/analysis"
)

// indent prefixes every line of s.
func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

func main() {
	var (
		duration = flag.Duration("duration", 15*time.Minute, "simulated capture duration")
		rate     = flag.Float64("rate", 20, "peak meeting arrivals per hour")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	cfg := zoomlens.DefaultCampusConfig()
	cfg.Seed = *seed
	cfg.Start = time.Date(2022, 5, 5, 9, 55, 0, 0, time.UTC) // catch the 10:00 spike
	cfg.Duration = *duration
	cfg.MeetingsPerHourPeak = *rate
	cfg.BackgroundPPS = 3000

	fmt.Printf("simulating a campus border capture: %s from %s, peak %.0f meetings/h...\n\n",
		cfg.Duration, cfg.Start.Format("15:04"), cfg.MeetingsPerHourPeak)
	r := zoomlens.RunCampus(cfg)

	fmt.Print(zoomlens.Table6(r), "\n")
	fmt.Print(zoomlens.Table2(r), "\n")
	fmt.Print(zoomlens.Table3(r), "\n")

	// Figure 14: media bit rate per type over time.
	fmt.Println("Figure 14 — media bit rate per type (Mbit/s), 1-minute resolution")
	series := r.MediaRateSeries()
	idx := map[zoomlens.MediaType]map[int64]float64{}
	for mt, ss := range series {
		idx[mt] = map[int64]float64{}
		for _, s := range ss {
			idx[mt][s.Time().Unix()] = s.Value
		}
	}
	fmt.Println("  time      video   audio  screen")
	for off := int64(0); off < int64(cfg.Duration/time.Second); off += 60 {
		ts := cfg.Start.Add(time.Duration(off) * time.Second)
		var v, a, s float64
		for k := ts.Unix(); k < ts.Unix()+60; k++ {
			v += idx[zoomlens.TypeVideo][k]
			a += idx[zoomlens.TypeAudio][k]
			s += idx[zoomlens.TypeScreenShare][k]
		}
		fmt.Printf("  %s  %6.2f  %6.2f  %6.2f\n", ts.Format("15:04:05"), v/60, a/60, s/60)
	}
	fmt.Println()

	// Figure 15: distributions per media type.
	d := r.Distributions(100)
	q := func(vals []float64, at float64) float64 {
		if len(vals) == 0 {
			return math.NaN()
		}
		return zoomlens.NewCDF(vals).Quantile(at)
	}
	fmt.Println("Figure 15 — per-type distributions (p25 / p50 / p75)")
	fmt.Printf("  15a data rate [Mbit/s]: video %.3f/%.3f/%.3f   audio %.3f/%.3f/%.3f   screen %.3f/%.3f/%.3f\n",
		q(d.DataRateMbps[zoomlens.TypeVideo], .25), q(d.DataRateMbps[zoomlens.TypeVideo], .5), q(d.DataRateMbps[zoomlens.TypeVideo], .75),
		q(d.DataRateMbps[zoomlens.TypeAudio], .25), q(d.DataRateMbps[zoomlens.TypeAudio], .5), q(d.DataRateMbps[zoomlens.TypeAudio], .75),
		q(d.DataRateMbps[zoomlens.TypeScreenShare], .25), q(d.DataRateMbps[zoomlens.TypeScreenShare], .5), q(d.DataRateMbps[zoomlens.TypeScreenShare], .75))
	fmt.Printf("  15b frame rate [fps]:   video %.1f/%.1f/%.1f   screen %.1f/%.1f/%.1f\n",
		q(d.FrameRate[zoomlens.TypeVideo], .25), q(d.FrameRate[zoomlens.TypeVideo], .5), q(d.FrameRate[zoomlens.TypeVideo], .75),
		q(d.FrameRate[zoomlens.TypeScreenShare], .25), q(d.FrameRate[zoomlens.TypeScreenShare], .5), q(d.FrameRate[zoomlens.TypeScreenShare], .75))
	fmt.Printf("  15c frame size [B]:     video %.0f/%.0f/%.0f   screen %.0f/%.0f/%.0f\n",
		q(d.FrameSize[zoomlens.TypeVideo], .25), q(d.FrameSize[zoomlens.TypeVideo], .5), q(d.FrameSize[zoomlens.TypeVideo], .75),
		q(d.FrameSize[zoomlens.TypeScreenShare], .25), q(d.FrameSize[zoomlens.TypeScreenShare], .5), q(d.FrameSize[zoomlens.TypeScreenShare], .75))
	fmt.Printf("  15d video jitter [ms]:  %.2f/%.2f/%.2f; share >40 ms: %.3f\n",
		q(d.JitterMS[zoomlens.TypeVideo], .25), q(d.JitterMS[zoomlens.TypeVideo], .5), q(d.JitterMS[zoomlens.TypeVideo], .75),
		1-zoomlens.NewCDF(d.JitterMS[zoomlens.TypeVideo]).At(40))
	fmt.Println()
	fmt.Println("  15a as CDFs (data rate, Mbit/s):")
	fmt.Print(indent(analysis.PlotCDFs(map[string]*analysis.CDF{
		"video":  zoomlens.NewCDF(d.DataRateMbps[zoomlens.TypeVideo]),
		"audio":  zoomlens.NewCDF(d.DataRateMbps[zoomlens.TypeAudio]),
		"screen": zoomlens.NewCDF(d.DataRateMbps[zoomlens.TypeScreenShare]),
	}, 0, 64, 12), "  "))
	fmt.Println()

	// Figure 16: the absence of correlation.
	rBit, rFps, n := r.JitterCorrelation()
	fmt.Printf("Figure 16 — Pearson r over %d stream-seconds: jitter↔bitrate %.3f, jitter↔frame-rate %.3f\n",
		n, rBit, rFps)
	fmt.Println("  (weak correlations: low rate/fps is mostly user-driven, not network-driven)")
	fmt.Println()

	// Figure 17: all vs Zoom packet rates.
	var all, zm float64
	for _, s := range r.AllPerSecond {
		all += s.Value
	}
	for _, s := range r.ZoomPerSecond {
		zm += s.Value
	}
	secs := float64(len(r.AllPerSecond))
	fmt.Printf("Figure 17 — monitor packet rate: all %.0f pps, Zoom %.0f pps (%.1f%%)\n",
		all/secs, zm/secs, 100*zm/all)
}
