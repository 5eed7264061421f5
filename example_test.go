package zoomlens_test

import (
	"fmt"
	"net/netip"
	"time"

	"zoomlens"
)

// Parsing one Zoom packet: a server-based video packet, annotated with
// the Table 1 and Table 2 rows each byte range comes from.
func ExampleParseZoomPacket() {
	wire := []byte{
		0x05,       // SFU encapsulation type: a media encapsulation follows (Table 1)
		0x00, 0x2a, // SFU sequence number (bytes 1-2)
		0, 0, 0, 0, // not decoded (bytes 3-6)
		0x04,                   // direction: from the SFU (byte 7)
		0x10,                   // media encapsulation type 16: video, RTP at 24 (Table 2)
		0, 0, 0, 0, 0, 0, 0, 0, // not decoded (bytes 1-8)
		0x00, 0x64, // media sequence number (bytes 9-10)
		0x00, 0x0d, 0xbb, 0xa0, // media timestamp (bytes 11-14)
		0, 0, 0, 0, 0, 0, // not decoded (bytes 15-20)
		0x00, 0x07, // frame sequence number (bytes 21-22)
		0x03,       // packets in the frame (byte 23)
		0x80, 0xe2, // RTP: version 2; marker, payload type 98 (Table 3)
		0x15, 0xb3, // RTP sequence number
		0x00, 0x0d, 0xbc, 0x9a, // RTP timestamp
		0x01, 0x00, 0x04, 0x01, // SSRC
		0xde, 0xad, 0xbe, 0xef, // encrypted payload
	}
	got, err := zoomlens.ParseZoomPacket(wire)
	if err != nil {
		panic(err)
	}
	fmt.Println(got.Media.Type, "frame", got.Media.FrameSequence, "ssrc", got.RTP.SSRC)
	// Output: video frame 7 ssrc 16778241
}

// The Appendix B infrastructure survey reproduces Table 7's totals.
func ExampleBuildInventory() {
	inv := zoomlens.BuildInventory(1)
	res := inv.Survey()
	fmt.Printf("%d networks, %d addresses, %d MMRs, %d ZCs\n",
		len(inv.Networks), inv.TotalAddresses(), res.TotalMMR, res.TotalZC)
	// Output: 117 networks, 427168 addresses, 5452 MMRs, 256 ZCs
}

// Empirical CDFs back the Figure 15 distributions.
func ExampleNewCDF() {
	c := zoomlens.NewCDF([]float64{1, 2, 2, 3, 10})
	fmt.Printf("P(x<=2) = %.1f, median = %.1f\n", c.At(2), c.Quantile(0.5))
	// Output: P(x<=2) = 0.6, median = 2.0
}

// The full pipeline over simulated traffic: the monitor callback feeds
// the analyzer directly, no pcap file needed. Deterministic per seed.
func ExampleNewAnalyzer() {
	opts := zoomlens.DefaultWorldOptions()
	world := zoomlens.NewWorld(opts)
	analyzer := zoomlens.NewAnalyzer(zoomlens.Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	})
	world.Monitor = analyzer.Packet

	m := world.NewMeeting()
	m.Join(world.NewClient("alice", true), zoomlens.DefaultMediaSet())
	m.Join(world.NewClient("bob", true), zoomlens.DefaultMediaSet())
	world.Run(opts.Start.Add(10 * time.Second))
	analyzer.Finish()

	s := analyzer.Summary()
	fmt.Printf("meetings=%d streams=%d flows=%d\n", s.Meetings, s.Streams, s.Flows)
	// Output: meetings=1 streams=8 flows=8
}
