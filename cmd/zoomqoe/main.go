// Command zoomqoe computes per-stream performance time series (§5) from
// a Zoom pcap and prints them as CSV: media bit rate, frame rate (both
// methods), frame size, frame delay, and frame-level jitter per second,
// plus RTT samples from stream-copy matching.
//
// Usage:
//
//	zoomqoe -i zoom.pcap [-ssrc N] [-what series|rtt|loss] [-workers N]
//
// Input, engine sizing, bounded-state, and live-observability flags are
// the shared driver's (internal/engine): -i (use "-" for stdin),
// -workers, -max-flows, -max-streams, -flow-ttl, -quarantine,
// -metrics-addr, -snapshot-interval, -snapshot-out, -trace. None of the
// observability flags changes the final report.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"zoomlens"
	"zoomlens/internal/engine"
	"zoomlens/internal/rtcproto"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("zoomqoe: ")
	var (
		ssrc = flag.Uint64("ssrc", 0, "restrict to one SSRC (0 = all)")
		what = flag.String("what", "series", "output: series | rtt | loss | talk | clock")
	)
	ef := engine.Register(flag.CommandLine)
	flag.Parse()

	run, err := ef.Run(zoomlens.DefaultZoomNetworks())
	if err != nil {
		log.Fatal(err)
	}
	defer run.Close()
	defer run.EmitStatus()
	defer run.Stage("report")()
	a := run.Analyzer

	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	switch *what {
	case "series":
		w.Write([]string{"ssrc", "proto", "type", "flow", "second", "media_kbps", "fps_delivered", "fps_encoder", "mean_frame_bytes", "jitter_ms"})
		for _, seg := range a.Streams() {
			id, sm := seg.ID, seg.Metrics
			if *ssrc != 0 && uint64(id.Key.SSRC) != *ssrc {
				continue
			}
			if sm.Packets == 0 {
				continue
			}
			origin := sm.MediaRate.Samples
			if len(origin) == 0 {
				continue
			}
			start := origin[0].Time()
			rate := sm.MediaRate.Bin(start, time.Second, "mean")
			fps := index(sm.FrameRate().Bin(start, time.Second, "last"))
			enc := index(sm.EncoderRate().Bin(start, time.Second, "mean"))
			size := index(sm.FrameSize().Bin(start, time.Second, "mean"))
			jit := index(sm.JitterMS.Bin(start, time.Second, "mean"))
			for _, s := range rate {
				sec := s.Time().Unix()
				w.Write([]string{
					strconv.FormatUint(uint64(id.Key.SSRC), 10),
					rtcproto.NameOf(id.Key.Proto),
					id.Key.Type.String(),
					id.Flow.String(),
					s.Time().Format("15:04:05"),
					fmt.Sprintf("%.1f", s.Value/1000),
					fmt.Sprintf("%.1f", fps[sec]),
					fmt.Sprintf("%.1f", enc[sec]),
					fmt.Sprintf("%.0f", size[sec]),
					fmt.Sprintf("%.2f", jit[sec]),
				})
			}
		}
	case "rtt":
		w.Write([]string{"time", "rtt_ms", "unified_stream"})
		for _, s := range a.Copies.Samples {
			w.Write([]string{
				s.Time().Format("15:04:05.000"),
				fmt.Sprintf("%.2f", float64(s.RTT)/1e6),
				strconv.Itoa(int(s.Unified)),
			})
		}
	case "loss":
		// The frame-delay retransmission heuristic (§5.5/§8) needs a
		// path RTT; use the mean of the copy-matcher samples when
		// available.
		var rtt time.Duration
		if n := len(a.Copies.Samples); n > 0 {
			var sum time.Duration
			for _, s := range a.Copies.Samples {
				sum += s.RTT
			}
			rtt = sum / time.Duration(n)
		}
		w.Write([]string{"ssrc", "proto", "type", "flow", "received", "expected_span", "lost", "duplicates", "reordered", "suspected_retx_frames", "strong_retx_frames"})
		for _, seg := range a.Streams() {
			id, sm := seg.ID, seg.Metrics
			ls := sm.LossStats()
			est := sm.EstimateRetransmissions(rtt)
			w.Write([]string{
				strconv.FormatUint(uint64(id.Key.SSRC), 10),
				rtcproto.NameOf(id.Key.Proto),
				id.Key.Type.String(),
				id.Flow.String(),
				strconv.FormatUint(ls.Received, 10),
				strconv.FormatUint(ls.ExpectedSpan, 10),
				strconv.FormatUint(ls.EstimatedLost, 10),
				strconv.FormatUint(ls.Duplicates, 10),
				strconv.FormatUint(ls.Reordered, 10),
				strconv.Itoa(est.SuspectedRetxFrames),
				strconv.Itoa(est.StrongRetxFrames),
			})
		}
	case "talk":
		w.Write([]string{"ssrc", "flow", "mode_known", "speaking_s", "observed_s", "fraction", "segments"})
		for _, seg := range a.Streams() {
			id, sm := seg.ID, seg.Metrics
			if *ssrc != 0 && uint64(id.Key.SSRC) != *ssrc {
				continue
			}
			if sm.Talk == nil {
				continue
			}
			st := sm.Talk.Stats()
			w.Write([]string{
				strconv.FormatUint(uint64(id.Key.SSRC), 10),
				id.Flow.String(),
				strconv.FormatBool(st.ModeKnown),
				fmt.Sprintf("%.1f", st.Speaking.Seconds()),
				fmt.Sprintf("%.1f", st.Observed.Seconds()),
				fmt.Sprintf("%.3f", st.SpeakingFraction),
				strconv.Itoa(st.Segments),
			})
		}
	case "clock":
		w.Write([]string{"ssrc", "type", "flow", "clock_hz", "rel_err", "frames"})
		for _, seg := range a.Streams() {
			id, sm := seg.ID, seg.Metrics
			est, ok := sm.InferClockRate()
			if !ok {
				continue
			}
			w.Write([]string{
				strconv.FormatUint(uint64(id.Key.SSRC), 10),
				id.Key.Type.String(),
				id.Flow.String(),
				fmt.Sprintf("%.0f", est.ClockRate),
				fmt.Sprintf("%.4f", est.Error),
				strconv.Itoa(est.Frames),
			})
		}
	default:
		log.Fatalf("unknown -what %q", *what)
	}
}

func index(samples []zoomlens.Sample) map[int64]float64 {
	out := make(map[int64]float64, len(samples))
	for _, s := range samples {
		out[s.Time().Unix()] = s.Value
	}
	return out
}
