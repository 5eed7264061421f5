// Package layers decodes and encodes the link, network, and transport
// headers that carry Zoom traffic: Ethernet, IPv4, IPv6, UDP, and TCP.
//
// The decoder follows the gopacket idiom of decoding into preallocated
// layer structs so that per-packet work allocates nothing: a Parser is
// created once and its Parse method overwrites the same Packet value for
// every input. Slices held by the decoded layers alias the input buffer.
package layers

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// EtherType values understood by the decoder.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeIPv6 uint16 = 0x86dd
)

// IP protocol numbers understood by the decoder.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// Errors returned by the decoder. All wrap ErrTruncated or ErrUnsupported
// so callers can classify failures without string matching.
var (
	ErrTruncated   = errors.New("layers: truncated packet")
	ErrUnsupported = errors.New("layers: unsupported protocol")
)

// Ethernet is a decoded Ethernet II header.
type Ethernet struct {
	Src       [6]byte
	Dst       [6]byte
	EtherType uint16
}

const ethernetLen = 14

// IPv4 is a decoded IPv4 header. Options are preserved but not
// interpreted.
type IPv4 struct {
	IHL      uint8 // header length in 32-bit words
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // top 3 bits of the fragment word
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src      netip.Addr
	Dst      netip.Addr
}

// HeaderLen returns the header length in bytes.
func (ip *IPv4) HeaderLen() int { return int(ip.IHL) * 4 }

// MoreFragments reports whether the MF flag is set.
func (ip *IPv4) MoreFragments() bool { return ip.Flags&0x1 != 0 }

// IsFragment reports whether this packet is part of a fragmented datagram
// other than an unfragmented one.
func (ip *IPv4) IsFragment() bool { return ip.MoreFragments() || ip.FragOff != 0 }

// IPv6 is a decoded IPv6 fixed header. Extension headers other than
// hop-by-hop/destination options are not traversed; packets using them
// decode as unsupported.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32
	PayloadLen   uint16
	NextHeader   uint8
	HopLimit     uint8
	Src          netip.Addr
	Dst          netip.Addr
}

const ipv6Len = 40

// UDP is a decoded UDP header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

const udpLen = 8

// TCPFlags holds the TCP flag bits.
type TCPFlags uint8

// TCP flag bit values.
const (
	TCPFin TCPFlags = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// Has reports whether all flags in mask are set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// TCP is a decoded TCP header. Options are preserved raw.
type TCP struct {
	SrcPort    uint16
	DstPort    uint16
	Seq        uint32
	Ack        uint32
	DataOffset uint8 // header length in 32-bit words
	Flags      TCPFlags
	Window     uint16
	Checksum   uint16
	Urgent     uint16
	Options    []byte
}

// HeaderLen returns the header length in bytes.
func (t *TCP) HeaderLen() int { return int(t.DataOffset) * 4 }

// Packet is the result of decoding one frame. Presence booleans indicate
// which layers were found; Payload is the transport payload (UDP data or
// TCP segment data).
type Packet struct {
	HasEthernet bool
	Ethernet    Ethernet
	HasIPv4     bool
	IPv4        IPv4
	HasIPv6     bool
	IPv6        IPv6
	HasUDP      bool
	UDP         UDP
	HasTCP      bool
	TCP         TCP
	Payload     []byte
}

// SrcAddr returns the network-layer source address, or the zero Addr if no
// IP layer was decoded.
func (p *Packet) SrcAddr() netip.Addr {
	switch {
	case p.HasIPv4:
		return p.IPv4.Src
	case p.HasIPv6:
		return p.IPv6.Src
	}
	return netip.Addr{}
}

// DstAddr returns the network-layer destination address, or the zero Addr
// if no IP layer was decoded.
func (p *Packet) DstAddr() netip.Addr {
	switch {
	case p.HasIPv4:
		return p.IPv4.Dst
	case p.HasIPv6:
		return p.IPv6.Dst
	}
	return netip.Addr{}
}

// SrcPort returns the transport source port, or 0 if no transport layer
// was decoded.
func (p *Packet) SrcPort() uint16 {
	switch {
	case p.HasUDP:
		return p.UDP.SrcPort
	case p.HasTCP:
		return p.TCP.SrcPort
	}
	return 0
}

// DstPort returns the transport destination port, or 0 if no transport
// layer was decoded.
func (p *Packet) DstPort() uint16 {
	switch {
	case p.HasUDP:
		return p.UDP.DstPort
	case p.HasTCP:
		return p.TCP.DstPort
	}
	return 0
}

// FiveTuple is a hashable flow key. Addrs are stored as netip.Addr, which
// compares by value.
type FiveTuple struct {
	Src     netip.Addr
	Dst     netip.Addr
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// String renders the tuple as "src:sport->dst:dport/proto".
func (ft FiveTuple) String() string {
	proto := "?"
	switch ft.Proto {
	case ProtoUDP:
		proto = "udp"
	case ProtoTCP:
		proto = "tcp"
	}
	return fmt.Sprintf("%s:%d->%s:%d/%s", ft.Src, ft.SrcPort, ft.Dst, ft.DstPort, proto)
}

// TupleNames renders tuples for the tie-breaks of report orders, which
// compare two tuples' strings only when everything before them ties: each
// tuple is rendered on demand and once, not one Sprintf per record up
// front. The zero value is not usable; make one per sort.
type TupleNames map[FiveTuple]string

// Of returns ft's String, rendering it on first use.
func (m TupleNames) Of(ft FiveTuple) string {
	s, ok := m[ft]
	if !ok {
		s = ft.String()
		m[ft] = s
	}
	return s
}

// FiveTuple extracts the flow key of a decoded packet. ok is false when
// either the network or transport layer is missing.
func (p *Packet) FiveTuple() (ft FiveTuple, ok bool) {
	ft.Src = p.SrcAddr()
	ft.Dst = p.DstAddr()
	if !ft.Src.IsValid() {
		return FiveTuple{}, false
	}
	switch {
	case p.HasUDP:
		ft.Proto = ProtoUDP
	case p.HasTCP:
		ft.Proto = ProtoTCP
	default:
		return FiveTuple{}, false
	}
	ft.SrcPort = p.SrcPort()
	ft.DstPort = p.DstPort()
	return ft, true
}

// FirstLayer selects what the first bytes of the input contain.
type FirstLayer int

// First-layer options for Parser.
const (
	FirstEthernet FirstLayer = iota
	FirstIPv4
	FirstIP // sniff the version nibble: IPv4 or IPv6
)

// Parser decodes frames into a reusable Packet.
type Parser struct {
	First FirstLayer
}

// Parse decodes data into pkt, overwriting all fields. On error the packet
// contains the layers decoded so far; Payload is nil.
func (ps *Parser) Parse(data []byte, pkt *Packet) error {
	*pkt = Packet{}
	switch ps.First {
	case FirstEthernet:
		return ps.parseEthernet(data, pkt)
	case FirstIPv4:
		return ps.parseIPv4(data, pkt)
	case FirstIP:
		if len(data) == 0 {
			return fmt.Errorf("%w: empty packet", ErrTruncated)
		}
		switch data[0] >> 4 {
		case 4:
			return ps.parseIPv4(data, pkt)
		case 6:
			return ps.parseIPv6(data, pkt)
		}
		return fmt.Errorf("%w: IP version %d", ErrUnsupported, data[0]>>4)
	}
	return fmt.Errorf("%w: first layer %d", ErrUnsupported, ps.First)
}

func (ps *Parser) parseEthernet(data []byte, pkt *Packet) error {
	if len(data) < ethernetLen {
		return fmt.Errorf("%w: ethernet header", ErrTruncated)
	}
	copy(pkt.Ethernet.Dst[:], data[0:6])
	copy(pkt.Ethernet.Src[:], data[6:12])
	pkt.Ethernet.EtherType = binary.BigEndian.Uint16(data[12:14])
	pkt.HasEthernet = true
	rest := data[ethernetLen:]
	switch pkt.Ethernet.EtherType {
	case EtherTypeIPv4:
		return ps.parseIPv4(rest, pkt)
	case EtherTypeIPv6:
		return ps.parseIPv6(rest, pkt)
	}
	return fmt.Errorf("%w: ethertype %#04x", ErrUnsupported, pkt.Ethernet.EtherType)
}

func (ps *Parser) parseIPv4(data []byte, pkt *Packet) error {
	if len(data) < 20 {
		return fmt.Errorf("%w: ipv4 header", ErrTruncated)
	}
	if v := data[0] >> 4; v != 4 {
		return fmt.Errorf("%w: ipv4 version %d", ErrUnsupported, v)
	}
	ip := &pkt.IPv4
	ip.IHL = data[0] & 0x0f
	if ip.HeaderLen() < 20 || len(data) < ip.HeaderLen() {
		return fmt.Errorf("%w: ipv4 header length %d", ErrTruncated, ip.HeaderLen())
	}
	ip.TOS = data[1]
	ip.TotalLen = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	frag := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(frag >> 13)
	ip.FragOff = frag & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	ip.Src = netip.AddrFrom4([4]byte(data[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	pkt.HasIPv4 = true
	if int(ip.TotalLen) >= ip.HeaderLen() && int(ip.TotalLen) <= len(data) {
		data = data[:ip.TotalLen] // strip Ethernet padding
	}
	rest := data[ip.HeaderLen():]
	if ip.IsFragment() && ip.FragOff != 0 {
		// Non-first fragments have no transport header.
		pkt.Payload = rest
		return nil
	}
	return ps.parseTransport(ip.Protocol, rest, pkt)
}

func (ps *Parser) parseIPv6(data []byte, pkt *Packet) error {
	if len(data) < ipv6Len {
		return fmt.Errorf("%w: ipv6 header", ErrTruncated)
	}
	if v := data[0] >> 4; v != 6 {
		return fmt.Errorf("%w: ipv6 version %d", ErrUnsupported, v)
	}
	ip := &pkt.IPv6
	ip.TrafficClass = data[0]<<4 | data[1]>>4
	ip.FlowLabel = binary.BigEndian.Uint32(data[0:4]) & 0xfffff
	ip.PayloadLen = binary.BigEndian.Uint16(data[4:6])
	ip.NextHeader = data[6]
	ip.HopLimit = data[7]
	ip.Src = netip.AddrFrom16([16]byte(data[8:24]))
	ip.Dst = netip.AddrFrom16([16]byte(data[24:40]))
	pkt.HasIPv6 = true
	rest := data[ipv6Len:]
	if int(ip.PayloadLen) <= len(rest) {
		rest = rest[:ip.PayloadLen]
	}
	next := ip.NextHeader
	// Traverse simple extension headers (hop-by-hop 0, routing 43,
	// destination options 60) which share the (next, len) layout.
	for next == 0 || next == 43 || next == 60 {
		if len(rest) < 8 {
			return fmt.Errorf("%w: ipv6 extension header", ErrTruncated)
		}
		extLen := 8 + int(rest[1])*8
		if len(rest) < extLen {
			return fmt.Errorf("%w: ipv6 extension header body", ErrTruncated)
		}
		next = rest[0]
		rest = rest[extLen:]
	}
	return ps.parseTransport(next, rest, pkt)
}

func (ps *Parser) parseTransport(proto uint8, data []byte, pkt *Packet) error {
	switch proto {
	case ProtoUDP:
		if len(data) < udpLen {
			return fmt.Errorf("%w: udp header", ErrTruncated)
		}
		u := &pkt.UDP
		u.SrcPort = binary.BigEndian.Uint16(data[0:2])
		u.DstPort = binary.BigEndian.Uint16(data[2:4])
		u.Length = binary.BigEndian.Uint16(data[4:6])
		u.Checksum = binary.BigEndian.Uint16(data[6:8])
		pkt.HasUDP = true
		payload := data[udpLen:]
		if int(u.Length) >= udpLen && int(u.Length)-udpLen <= len(payload) {
			payload = payload[:int(u.Length)-udpLen]
		}
		pkt.Payload = payload
		return nil
	case ProtoTCP:
		if len(data) < 20 {
			return fmt.Errorf("%w: tcp header", ErrTruncated)
		}
		t := &pkt.TCP
		t.SrcPort = binary.BigEndian.Uint16(data[0:2])
		t.DstPort = binary.BigEndian.Uint16(data[2:4])
		t.Seq = binary.BigEndian.Uint32(data[4:8])
		t.Ack = binary.BigEndian.Uint32(data[8:12])
		t.DataOffset = data[12] >> 4
		t.Flags = TCPFlags(data[13] & 0x3f)
		t.Window = binary.BigEndian.Uint16(data[14:16])
		t.Checksum = binary.BigEndian.Uint16(data[16:18])
		t.Urgent = binary.BigEndian.Uint16(data[18:20])
		hl := t.HeaderLen()
		if hl < 20 || len(data) < hl {
			return fmt.Errorf("%w: tcp header length %d", ErrTruncated, hl)
		}
		t.Options = data[20:hl]
		pkt.HasTCP = true
		pkt.Payload = data[hl:]
		return nil
	}
	return fmt.Errorf("%w: ip protocol %d", ErrUnsupported, proto)
}
