// Command zoomflows extracts flows, media streams, and inferred meetings
// from a Zoom pcap and prints them as CSV, implementing §4.3's grouping
// heuristic end to end.
//
// Usage:
//
//	zoomflows -i zoom.pcap [-what streams|flows|meetings] [-workers N]
//
// Input, engine sizing, bounded-state, and live-observability flags are
// the shared driver's (internal/engine): -i (use "-" for stdin),
// -workers, -max-flows, -max-streams, -flow-ttl, -quarantine,
// -metrics-addr, -snapshot-interval, -snapshot-out, -trace. The report
// is byte-identical at any worker count, and none of the observability
// flags changes it.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"zoomlens"
	"zoomlens/internal/engine"
	"zoomlens/internal/rtcproto"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("zoomflows: ")
	what := flag.String("what", "streams", "output: streams | flows | meetings | reports | summary")
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
	case "streams":
		w.Write([]string{"ssrc", "proto", "type", "flow", "first_seen", "last_seen", "packets", "media_bytes", "frames", "lost", "dups"})
		for _, seg := range a.Streams() {
			id, sm := seg.ID, seg.Metrics
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
				strconv.FormatUint(sm.FramesTotal, 10),
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
