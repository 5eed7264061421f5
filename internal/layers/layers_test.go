package layers

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

func ap(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }

func TestUDPRoundTrip(t *testing.T) {
	payload := []byte("zoom media payload bytes")
	src, dst := ap("10.8.1.2:52143"), ap("52.81.1.9:8801")
	raw := EthernetIPv4UDP(src, dst, 64, payload)

	var p Packet
	ps := &Parser{First: FirstEthernet}
	if err := ps.Parse(raw, &p); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !p.HasEthernet || !p.HasIPv4 || !p.HasUDP || p.HasTCP || p.HasIPv6 {
		t.Fatalf("layer presence = eth:%v ip4:%v udp:%v tcp:%v ip6:%v", p.HasEthernet, p.HasIPv4, p.HasUDP, p.HasTCP, p.HasIPv6)
	}
	if p.IPv4.Src != src.Addr() || p.IPv4.Dst != dst.Addr() {
		t.Errorf("addrs = %v->%v, want %v->%v", p.IPv4.Src, p.IPv4.Dst, src.Addr(), dst.Addr())
	}
	if p.UDP.SrcPort != src.Port() || p.UDP.DstPort != dst.Port() {
		t.Errorf("ports = %d->%d, want %d->%d", p.UDP.SrcPort, p.UDP.DstPort, src.Port(), dst.Port())
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Errorf("payload = %q, want %q", p.Payload, payload)
	}
	if p.IPv4.TTL != 64 {
		t.Errorf("TTL = %d, want 64", p.IPv4.TTL)
	}
	if internetChecksum(raw[14:34]) != 0 {
		t.Error("IPv4 checksum invalid")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	src, dst := ap("10.8.1.2:44123"), ap("52.81.1.9:443")
	raw := new(Builder).BuildTCP(src, dst, 57, 1000, 2000, TCPAck|TCPPsh, 65535, payload)

	var p Packet
	ps := &Parser{First: FirstEthernet}
	if err := ps.Parse(raw, &p); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !p.HasTCP {
		t.Fatal("TCP layer missing")
	}
	if p.TCP.Seq != 1000 || p.TCP.Ack != 2000 {
		t.Errorf("seq/ack = %d/%d, want 1000/2000", p.TCP.Seq, p.TCP.Ack)
	}
	if !p.TCP.Flags.Has(TCPAck | TCPPsh) {
		t.Errorf("flags = %b", p.TCP.Flags)
	}
	if p.TCP.Flags.Has(TCPSyn) {
		t.Error("SYN unexpectedly set")
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Errorf("payload = %v, want %v", p.Payload, payload)
	}
	if p.TCP.Window != 65535 {
		t.Errorf("window = %d", p.TCP.Window)
	}
}

func TestFiveTuple(t *testing.T) {
	src, dst := ap("10.8.1.2:52143"), ap("52.81.1.9:8801")
	raw := EthernetIPv4UDP(src, dst, 64, nil)
	var p Packet
	if err := (&Parser{}).Parse(raw, &p); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ft, ok := p.FiveTuple()
	if !ok {
		t.Fatal("FiveTuple not ok")
	}
	want := FiveTuple{Src: src.Addr(), Dst: dst.Addr(), SrcPort: src.Port(), DstPort: dst.Port(), Proto: ProtoUDP}
	if ft != want {
		t.Errorf("ft = %+v, want %+v", ft, want)
	}
	if got := ft.String(); got != "10.8.1.2:52143->52.81.1.9:8801/udp" {
		t.Errorf("String = %q", got)
	}
}

func TestParseTruncated(t *testing.T) {
	raw := EthernetIPv4UDP(ap("10.0.0.1:1"), ap("10.0.0.2:2"), 64, []byte("hello"))
	ps := &Parser{}
	var p Packet
	for cut := 0; cut < len(raw)-5; cut += 3 {
		err := ps.Parse(raw[:cut], &p)
		if cut < 14+20+8 && err == nil {
			t.Errorf("cut=%d: expected truncation error", cut)
		}
	}
}

func TestParseUnsupportedEtherType(t *testing.T) {
	raw := make([]byte, 20)
	raw[12], raw[13] = 0x08, 0x06 // ARP
	var p Packet
	err := (&Parser{}).Parse(raw, &p)
	if err == nil {
		t.Fatal("expected error for ARP ethertype")
	}
	if !p.HasEthernet {
		t.Error("ethernet layer should still decode")
	}
}

func TestEthernetPaddingStripped(t *testing.T) {
	// Short UDP payload: Ethernet pads to 60 bytes. The parser must strip
	// padding using the IPv4 total length.
	raw := EthernetIPv4UDP(ap("10.0.0.1:1000"), ap("10.0.0.2:2000"), 64, []byte{0xaa})
	padded := append(raw, make([]byte, 60-len(raw))...)
	var p Packet
	if err := (&Parser{}).Parse(padded, &p); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.Payload) != 1 || p.Payload[0] != 0xaa {
		t.Errorf("payload = %x, want aa", p.Payload)
	}
}

func TestParseIPv6UDP(t *testing.T) {
	// Hand-built IPv6+UDP datagram.
	srcA := netip.MustParseAddr("2001:db8::1")
	dstA := netip.MustParseAddr("2001:db8::2")
	payload := []byte("v6 payload")
	pkt := make([]byte, 0, 64)
	pkt = append(pkt, 0x60, 0, 0, 0)
	udpLenTotal := 8 + len(payload)
	pkt = append(pkt, byte(udpLenTotal>>8), byte(udpLenTotal), ProtoUDP, 64)
	s16, d16 := srcA.As16(), dstA.As16()
	pkt = append(pkt, s16[:]...)
	pkt = append(pkt, d16[:]...)
	pkt = append(pkt, 0x30, 0x39, 0x22, 0x61) // ports 12345 -> 8801
	pkt = append(pkt, byte(udpLenTotal>>8), byte(udpLenTotal), 0, 0)
	pkt = append(pkt, payload...)

	var p Packet
	if err := (&Parser{First: FirstIP}).Parse(pkt, &p); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !p.HasIPv6 || !p.HasUDP {
		t.Fatalf("presence ip6:%v udp:%v", p.HasIPv6, p.HasUDP)
	}
	if p.IPv6.Src != srcA || p.IPv6.Dst != dstA {
		t.Errorf("addrs %v->%v", p.IPv6.Src, p.IPv6.Dst)
	}
	if p.UDP.DstPort != 8801 {
		t.Errorf("dst port = %d", p.UDP.DstPort)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Errorf("payload = %q", p.Payload)
	}
	ft, ok := p.FiveTuple()
	if !ok || ft.Src != srcA {
		t.Errorf("five-tuple %+v ok=%v", ft, ok)
	}
}

func TestParseFirstIPv4(t *testing.T) {
	full := EthernetIPv4UDP(ap("10.0.0.1:5"), ap("10.0.0.2:6"), 64, []byte("x"))
	var p Packet
	if err := (&Parser{First: FirstIPv4}).Parse(full[14:], &p); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.HasEthernet {
		t.Error("unexpected ethernet layer")
	}
	if !p.HasUDP || string(p.Payload) != "x" {
		t.Errorf("udp:%v payload:%q", p.HasUDP, p.Payload)
	}
}

func TestIPv4FragmentNonFirst(t *testing.T) {
	raw := EthernetIPv4UDP(ap("10.0.0.1:5"), ap("10.0.0.2:6"), 64, []byte("abcdef"))
	// Set fragment offset to 100 (non-first fragment).
	raw[14+6] = 0x20 // MF + offset high bits
	raw[14+7] = 100
	var p Packet
	if err := (&Parser{}).Parse(raw, &p); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.HasUDP {
		t.Error("non-first fragment should not decode a UDP layer")
	}
	if !p.IPv4.IsFragment() {
		t.Error("IsFragment = false")
	}
}

func TestInternetChecksumKnownVector(t *testing.T) {
	// RFC 1071 example data.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := internetChecksum(data); got != ^uint16(0xddf2) {
		t.Errorf("checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestQuickUDPPayloadRoundTrip(t *testing.T) {
	f := func(payload []byte, sport, dport uint16, a, b [4]byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		src := netip.AddrPortFrom(netip.AddrFrom4(a), sport)
		dst := netip.AddrPortFrom(netip.AddrFrom4(b), dport)
		raw := EthernetIPv4UDP(src, dst, 64, payload)
		var p Packet
		if err := (&Parser{}).Parse(raw, &p); err != nil {
			return false
		}
		return bytes.Equal(p.Payload, payload) &&
			p.UDP.SrcPort == sport && p.UDP.DstPort == dport &&
			p.IPv4.Src == src.Addr() && p.IPv4.Dst == dst.Addr() &&
			internetChecksum(raw[14:34]) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickTCPRoundTrip(t *testing.T) {
	f := func(payload []byte, seq, ack uint32, flags uint8) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		src, dst := ap("10.9.9.9:32000"), ap("52.81.0.1:443")
		raw := new(Builder).BuildTCP(src, dst, 60, seq, ack, TCPFlags(flags&0x3f), 4096, payload)
		var p Packet
		if err := (&Parser{}).Parse(raw, &p); err != nil {
			return false
		}
		return p.TCP.Seq == seq && p.TCP.Ack == ack &&
			p.TCP.Flags == TCPFlags(flags&0x3f) && bytes.Equal(p.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBuilderReuseNoCrossContamination(t *testing.T) {
	var b Builder
	p1 := b.BuildUDP(ap("10.0.0.1:1"), ap("10.0.0.2:2"), 64, []byte("first"))
	p2 := b.BuildUDP(ap("10.0.0.3:3"), ap("10.0.0.4:4"), 64, []byte("second!"))
	var d1, d2 Packet
	ps := &Parser{}
	if err := ps.Parse(p1, &d1); err != nil {
		t.Fatal(err)
	}
	if err := ps.Parse(p2, &d2); err != nil {
		t.Fatal(err)
	}
	if string(d1.Payload) != "first" || string(d2.Payload) != "second!" {
		t.Errorf("payloads %q %q", d1.Payload, d2.Payload)
	}
	if d1.IPv4.Src == d2.IPv4.Src {
		t.Error("builder reuse leaked addresses")
	}
}

func BenchmarkParseUDP(b *testing.B) {
	raw := EthernetIPv4UDP(ap("10.8.1.2:52143"), ap("52.81.1.9:8801"), 64, make([]byte, 1100))
	var p Packet
	ps := &Parser{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ps.Parse(raw, &p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildUDP(b *testing.B) {
	var bld Builder
	payload := make([]byte, 1100)
	src, dst := ap("10.8.1.2:52143"), ap("52.81.1.9:8801")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bld.BuildUDP(src, dst, 64, payload)
	}
}

func TestEthernetIPv6UDPRoundTrip(t *testing.T) {
	src := netip.MustParseAddrPort("[2001:db8::1]:40000")
	dst := netip.MustParseAddrPort("[2001:db8::2]:8801")
	payload := []byte("v6 zoom payload")
	raw := EthernetIPv6UDP(src, dst, 64, payload)
	var p Packet
	if err := (&Parser{}).Parse(raw, &p); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !p.HasIPv6 || !p.HasUDP {
		t.Fatalf("presence ip6:%v udp:%v", p.HasIPv6, p.HasUDP)
	}
	if p.IPv6.Src != src.Addr() || p.UDP.DstPort != 8801 {
		t.Errorf("decoded %v:%d", p.IPv6.Src, p.UDP.DstPort)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Errorf("payload %q", p.Payload)
	}
	if p.IPv6.HopLimit != 64 {
		t.Errorf("hop limit %d", p.IPv6.HopLimit)
	}
	ft, ok := p.FiveTuple()
	if !ok || ft.Proto != ProtoUDP {
		t.Errorf("five tuple %v ok=%v", ft, ok)
	}
}

func TestEthernetIPv6UDPPanicsOnV4(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for IPv4 input")
		}
	}()
	EthernetIPv6UDP(ap("10.0.0.1:1"), ap("10.0.0.2:2"), 64, nil)
}
