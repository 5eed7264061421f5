package layers

import (
	"net/netip"
	"testing"
)

// FuzzLayersParse drives the Ethernet/IP/UDP/TCP decoder with arbitrary
// frames: it must never panic, and every frame it accepts must yield
// safe accessor results (the analyzer calls these on each packet).
func FuzzLayersParse(f *testing.F) {
	src := netip.MustParseAddrPort("10.8.1.2:50000")
	dst := netip.MustParseAddrPort("203.0.113.5:8801")
	f.Add(EthernetIPv4UDP(src, dst, 64, []byte("payload")))
	f.Add(new(Builder).BuildTCP(src, dst, 64, 1000, 2000, TCPAck|TCPPsh, 4096, []byte("segment")))
	f.Add(EthernetIPv6UDP(netip.MustParseAddrPort("[2001:db8::1]:4000"), netip.MustParseAddrPort("[2001:db8::2]:8801"), 64, []byte("p6")))
	f.Add([]byte{})
	f.Add(make([]byte, 14))

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Parser
		var pkt Packet
		if err := p.Parse(data, &pkt); err != nil {
			return
		}
		_ = pkt.SrcAddr()
		_ = pkt.DstAddr()
		_ = pkt.SrcPort()
		_ = pkt.DstPort()
		if ft, ok := pkt.FiveTuple(); ok {
			_ = ft.String()
		}
	})
}
