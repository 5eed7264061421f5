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

// rfc1071 is the RFC 1071 reference loop the word-wise checksum replaced:
// 16-bit big-endian words in a 32-bit accumulator, a trailing odd byte
// padded with zero, folded and complemented.
func rfc1071(chunks ...[]byte) uint16 {
	var sum uint32
	for _, data := range chunks {
		for i := 0; i+1 < len(data); i += 2 {
			sum += uint32(data[i])<<8 | uint32(data[i+1])
		}
		if len(data)%2 == 1 {
			sum += uint32(data[len(data)-1]) << 8
		}
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// FuzzChecksum holds the UDP, TCP and IPv4-header checksums to the RFC
// 1071 reference loop at every length of the input, odd ones included.
func FuzzChecksum(f *testing.F) {
	f.Add(uint32(0x0a080102), uint32(0x34510a14), []byte("payload"))
	f.Add(uint32(0), uint32(0), []byte{})
	f.Add(uint32(0xffffffff), uint32(0xffffffff), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint32(1), uint32(2), make([]byte, 1501))

	f.Fuzz(func(t *testing.T, src, dst uint32, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		s4 := [4]byte{byte(src >> 24), byte(src >> 16), byte(src >> 8), byte(src)}
		d4 := [4]byte{byte(dst >> 24), byte(dst >> 16), byte(dst >> 8), byte(dst)}
		sa, da := netip.AddrFrom4(s4), netip.AddrFrom4(d4)
		for n := 0; n <= len(data); n++ {
			seg := data[:n]
			if got, want := internetChecksum(seg), rfc1071(seg); got != want {
				t.Fatalf("header checksum over %d bytes: %#04x, RFC 1071 loop %#04x", n, got, want)
			}
			for _, proto := range []uint8{ProtoUDP, ProtoTCP} {
				pseudo := []byte{s4[0], s4[1], s4[2], s4[3], d4[0], d4[1], d4[2], d4[3], 0, proto, byte(n >> 8), byte(n)}
				if got, want := transportChecksum(sa, da, proto, seg), rfc1071(pseudo, seg); got != want {
					t.Fatalf("proto %d checksum over %d bytes: %#04x, RFC 1071 loop %#04x", proto, n, got, want)
				}
			}
		}
	})
}
