// Quickstart: simulate a two-minute Zoom meeting, capture it at the
// campus border, and analyze it with the zoomlens pipeline — streams,
// meetings, and per-stream performance metrics, all from packets alone.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"net/netip"
	"time"

	"zoomlens"
)

func main() {
	// 1. A simulated world stands in for real clients, the Zoom SFU,
	//    and the campus network. The monitor callback is the border tap.
	opts := zoomlens.DefaultWorldOptions()
	world := zoomlens.NewWorld(opts)

	analyzer := zoomlens.NewAnalyzer(zoomlens.Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	})
	world.Monitor = analyzer.Packet

	// 2. Two on-campus participants meet for two minutes.
	meeting := world.NewMeeting()
	meeting.Join(world.NewClient("alice", true), zoomlens.DefaultMediaSet())
	meeting.Join(world.NewClient("bob", true), zoomlens.DefaultMediaSet())
	world.Run(opts.Start.Add(2 * time.Minute))
	analyzer.Finish()

	// 3. What did passive analysis recover?
	sum := analyzer.Summary()
	fmt.Printf("capture: %d packets, %d flows, %d media streams over %s\n",
		sum.Packets, sum.Flows, sum.Streams, sum.Duration.Round(time.Second))

	for _, m := range analyzer.Meetings() {
		fmt.Printf("meeting %d: %d participants, %d logical streams, %s–%s\n",
			m.ID, m.Participants(), len(m.Streams),
			m.Start.Format("15:04:05"), m.End.Format("15:04:05"))
	}

	fmt.Println("\nper-stream metrics:")
	for _, seg := range analyzer.Streams() {
		id, sm := seg.ID, seg.Metrics
		if sm.Packets < 100 {
			continue
		}
		loss := sm.LossStats()
		var fps float64
		if frames := sm.Frames(); frames.Len() > 0 {
			fps = float64(frames.At(frames.Len() - 1).Rate) // §5.2 method 1 at the last finished frame
		}
		fmt.Printf("  %-18s %-45s pkts=%-6d frames=%-5d fps≈%-5.1f mediaB=%-8d lost=%d dup=%d\n",
			id.Key, id.Flow, sm.Packets, sm.FramesTotal(), fps, sm.MediaBytes,
			loss.EstimatedLost, loss.Duplicates)
	}

	// 4. Latency from stream copies (§5.3 method 1): the monitor sees
	//    each uplink stream come back from the SFU toward the other
	//    participant.
	if n := analyzer.Copies.Samples.Len(); n > 0 {
		var sum time.Duration
		for i := range n {
			sum += analyzer.Copies.Samples.At(i).RTT
		}
		fmt.Printf("\nmonitor↔SFU RTT: %d samples, mean %s\n",
			n, (sum / time.Duration(n)).Round(100*time.Microsecond))
	}
}
