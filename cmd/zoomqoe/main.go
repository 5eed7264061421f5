// Command zoomqoe is the report tool: it analyzes a Zoom pcap and prints
// one view of the result as CSV. The per-stream performance views (§5):
// media bit rate, frame rate (both methods), frame size and frame-level
// jitter per second (series), RTT samples from stream-copy matching
// (rtt), loss and retransmission estimates (loss), talk time (talk) and
// inferred RTP clock rates (clock). The §4.3 grouping views: media
// streams, flows, inferred meetings, per-participant meeting reports,
// and a one-line summary of the run.
//
// Usage:
//
//	zoomqoe -i zoom.pcap [-ssrc N] [-workers N]
//	        [-what series|rtt|loss|talk|clock|streams|flows|meetings|reports|summary]
//
// Input, engine sizing, bounded-state, and live-observability flags are
// the shared driver's (internal/engine): -i (use "-" for stdin),
// -workers, -max-flows, -max-streams, -flow-ttl, -quarantine,
// -metrics-addr, -snapshot-interval, -snapshot-out, -trace. The report is
// byte-identical at any worker count, and none of the observability
// flags changes it.
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
		ssrc = flag.Uint64("ssrc", 0, "restrict the per-stream outputs (series, loss, talk, clock, streams) to one SSRC (0 = all)")
		what = flag.String("what", "series", "output: series | rtt | loss | talk | clock | streams | flows | meetings | reports | summary")
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
	want := func(s uint32) bool { return *ssrc == 0 || uint64(s) == *ssrc }

	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	switch *what {
	case "series":
		w.Write([]string{"ssrc", "proto", "type", "flow", "second", "media_kbps", "fps_delivered", "fps_encoder", "mean_frame_bytes", "jitter_ms"})
		for _, seg := range a.Streams() {
			id, sm := seg.ID, seg.Metrics
			if !want(id.Key.SSRC) || sm.Packets == 0 {
				continue
			}
			if sm.MediaRate.Samples.Len() == 0 {
				continue
			}
			start := sm.MediaRate.Samples.At(0).Time()
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
		for i := range a.Copies.Samples.Len() {
			s := a.Copies.Samples.At(i)
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
		if n := a.Copies.Samples.Len(); n > 0 {
			var sum time.Duration
			for i := range n {
				sum += a.Copies.Samples.At(i).RTT
			}
			rtt = sum / time.Duration(n)
		}
		w.Write([]string{"ssrc", "proto", "type", "flow", "received", "expected_span", "lost", "duplicates", "reordered", "suspected_retx_frames", "strong_retx_frames"})
		for _, seg := range a.Streams() {
			id, sm := seg.ID, seg.Metrics
			if !want(id.Key.SSRC) {
				continue
			}
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
			if !want(id.Key.SSRC) || sm.Talk == nil {
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
			if !ok || !want(id.Key.SSRC) {
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
	case "streams":
		w.Write([]string{"ssrc", "proto", "type", "flow", "first_seen", "last_seen", "packets", "media_bytes", "frames", "lost", "dups"})
		for _, seg := range a.Streams() {
			id, sm := seg.ID, seg.Metrics
			if !want(id.Key.SSRC) {
				continue
			}
			loss := sm.LossStats()
			w.Write([]string{
				strconv.FormatUint(uint64(id.Key.SSRC), 10),
				rtcproto.NameOf(id.Key.Proto),
				id.Key.Type.String(),
				id.Flow.String(),
				seg.FirstSeen.Format("15:04:05.000"),
				seg.LastSeen.Format("15:04:05.000"),
				strconv.FormatUint(sm.Packets, 10),
				strconv.FormatUint(sm.MediaBytes, 10),
				strconv.FormatUint(sm.FramesTotal(), 10),
				strconv.FormatUint(loss.EstimatedLost, 10),
				strconv.FormatUint(loss.Duplicates, 10),
			})
		}
	case "flows":
		w.Write([]string{"flow", "first_seen", "last_seen", "packets", "bytes", "server_based", "p2p"})
		for _, fl := range a.Flows.Flows() {
			w.Write([]string{
				fl.Flow.String(),
				fl.FirstSeen.Format("15:04:05.000"),
				fl.LastSeen.Format("15:04:05.000"),
				strconv.FormatUint(fl.Packets, 10),
				strconv.FormatUint(fl.WireBytes, 10),
				strconv.FormatUint(fl.ServerBased, 10),
				strconv.FormatUint(fl.P2P, 10),
			})
		}
	case "meetings":
		w.Write([]string{"meeting", "app", "start", "end", "participants", "streams", "clients"})
		for _, m := range a.Meetings() {
			clients := ""
			for i, c := range m.Clients {
				if i > 0 {
					clients += " "
				}
				clients += c.String()
			}
			w.Write([]string{
				strconv.Itoa(m.ID),
				rtcproto.NameOf(m.Proto),
				m.Start.Format("15:04:05"),
				m.End.Format("15:04:05"),
				strconv.Itoa(m.Participants()),
				strconv.Itoa(len(m.Streams)),
				clients,
			})
		}
	case "reports":
		w.Write([]string{"meeting", "app", "client", "streams", "video_fps", "jitter_p50_ms", "loss_rate", "retx_rate", "degraded", "meeting_wide", "mean_rtt_ms"})
		for _, rep := range a.MeetingReports() {
			for _, p := range rep.Participants {
				w.Write([]string{
					strconv.Itoa(rep.Meeting.ID),
					rep.App,
					p.Client.String(),
					strconv.Itoa(p.Streams),
					fmt.Sprintf("%.1f", p.VideoFPSMean),
					fmt.Sprintf("%.2f", p.JitterP50MS),
					fmt.Sprintf("%.4f", p.LossRate),
					fmt.Sprintf("%.4f", p.RetransmissionRate),
					strconv.FormatBool(p.Degraded),
					strconv.FormatBool(rep.MeetingWideDegradation),
					fmt.Sprintf("%.1f", float64(rep.MeanRTT)/1e6),
				})
			}
		}
	case "summary":
		s := a.Summary()
		protos := ""
		for i, v := range s.ProtoDecoded {
			protos += fmt.Sprintf(" proto_decoded_%s=%d", rtcproto.NameOf(uint8(i)), v)
		}
		fmt.Printf("duration=%s packets=%d bytes=%d zoom_udp=%d tcp=%d stun=%d stun_port_nonstun=%d undecodable=%d%s flows=%d streams=%d meetings=%d evicted_flows=%d evicted_streams=%d rejected=%d panics=%d truncated=%t\n",
			s.Duration, s.Packets, s.Bytes, s.ZoomUDP, s.TCPPackets, s.STUNPackets, s.STUNPortNonSTUN, s.Undecodable, protos, s.Flows, s.Streams, s.Meetings,
			s.EvictedFlows, s.EvictedStreams, s.RejectedPackets, s.PanicsRecovered, s.Truncated)
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
