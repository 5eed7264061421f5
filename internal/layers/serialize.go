package layers

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Builder assembles wire-format packets for the simulator and for tests.
// All methods append to an internal buffer that is reused across calls to
// Reset, so steady-state packet construction allocates only the final
// copy handed to the caller.
type Builder struct {
	buf []byte
}

// Reset clears the builder for a new packet.
func (b *Builder) Reset() { b.buf = b.buf[:0] }

// Bytes returns a copy of the assembled packet.
func (b *Builder) Bytes() []byte {
	out := make([]byte, len(b.buf))
	copy(out, b.buf)
	return out
}

// EthernetIPv4UDP builds a complete Ethernet+IPv4+UDP packet around
// payload, with correct lengths and checksums. MAC addresses are derived
// deterministically from the IP addresses (this repository never needs
// real MACs).
func EthernetIPv4UDP(src, dst netip.AddrPort, ttl uint8, payload []byte) []byte {
	var b Builder
	b.appendEthernet(src.Addr(), dst.Addr(), EtherTypeIPv4)
	b.appendIPv4UDP(src, dst, ttl, payload)
	return b.Bytes()
}

// BuildUDP appends into b (after Reset) and returns a copy of the
// assembled bytes, which the caller owns.
func (b *Builder) BuildUDP(src, dst netip.AddrPort, ttl uint8, payload []byte) []byte {
	b.FrameUDP(src, dst, ttl, payload)
	return b.Bytes()
}

// FrameUDP is BuildUDP without the copy: the frame it returns is b's
// buffer, lent until b's next use. The simulator's tap frames into one
// Builder this way.
func (b *Builder) FrameUDP(src, dst netip.AddrPort, ttl uint8, payload []byte) []byte {
	b.Reset()
	b.appendEthernet(src.Addr(), dst.Addr(), EtherTypeIPv4)
	b.appendIPv4UDP(src, dst, ttl, payload)
	return b.buf
}

// BuildTCP builds a complete Ethernet+IPv4+TCP packet like BuildUDP; the
// TCP header uses no options.
func (b *Builder) BuildTCP(src, dst netip.AddrPort, ttl uint8, seq, ack uint32, flags TCPFlags, window uint16, payload []byte) []byte {
	b.FrameTCP(src, dst, ttl, seq, ack, flags, window, payload)
	return b.Bytes()
}

// FrameTCP is BuildTCP without the copy, lending the frame like
// FrameUDP.
func (b *Builder) FrameTCP(src, dst netip.AddrPort, ttl uint8, seq, ack uint32, flags TCPFlags, window uint16, payload []byte) []byte {
	b.Reset()
	b.appendEthernet(src.Addr(), dst.Addr(), EtherTypeIPv4)
	b.appendIPv4TCP(src, dst, ttl, seq, ack, flags, window, payload)
	return b.buf
}

func macFor(a netip.Addr) [6]byte {
	var m [6]byte
	b := a.As4()
	m[0] = 0x02 // locally administered
	m[1] = 0x5a // 'Z'
	copy(m[2:], b[:])
	return m
}

func (b *Builder) appendEthernet(src, dst netip.Addr, etherType uint16) {
	sm, dm := macFor(src), macFor(dst)
	b.buf = append(b.buf, dm[:]...)
	b.buf = append(b.buf, sm[:]...)
	b.buf = binary.BigEndian.AppendUint16(b.buf, etherType)
}

func (b *Builder) appendIPv4UDP(src, dst netip.AddrPort, ttl uint8, payload []byte) {
	totalLen := 20 + udpLen + len(payload)
	b.appendIPv4Header(src.Addr(), dst.Addr(), ttl, ProtoUDP, totalLen)
	udpStart := len(b.buf)
	b.buf = binary.BigEndian.AppendUint16(b.buf, src.Port())
	b.buf = binary.BigEndian.AppendUint16(b.buf, dst.Port())
	b.buf = binary.BigEndian.AppendUint16(b.buf, uint16(udpLen+len(payload)))
	b.buf = binary.BigEndian.AppendUint16(b.buf, 0) // checksum placeholder
	b.buf = append(b.buf, payload...)
	cs := transportChecksum(src.Addr(), dst.Addr(), ProtoUDP, b.buf[udpStart:])
	if cs == 0 {
		cs = 0xffff // UDP: zero checksum means "not computed"
	}
	binary.BigEndian.PutUint16(b.buf[udpStart+6:], cs)
}

func (b *Builder) appendIPv4TCP(src, dst netip.AddrPort, ttl uint8, seq, ack uint32, flags TCPFlags, window uint16, payload []byte) {
	totalLen := 20 + 20 + len(payload)
	b.appendIPv4Header(src.Addr(), dst.Addr(), ttl, ProtoTCP, totalLen)
	tcpStart := len(b.buf)
	b.buf = binary.BigEndian.AppendUint16(b.buf, src.Port())
	b.buf = binary.BigEndian.AppendUint16(b.buf, dst.Port())
	b.buf = binary.BigEndian.AppendUint32(b.buf, seq)
	b.buf = binary.BigEndian.AppendUint32(b.buf, ack)
	b.buf = append(b.buf, 5<<4, byte(flags))
	b.buf = binary.BigEndian.AppendUint16(b.buf, window)
	b.buf = binary.BigEndian.AppendUint16(b.buf, 0) // checksum placeholder
	b.buf = binary.BigEndian.AppendUint16(b.buf, 0) // urgent
	b.buf = append(b.buf, payload...)
	cs := transportChecksum(src.Addr(), dst.Addr(), ProtoTCP, b.buf[tcpStart:])
	binary.BigEndian.PutUint16(b.buf[tcpStart+16:], cs)
}

func (b *Builder) appendIPv4Header(src, dst netip.Addr, ttl uint8, proto uint8, totalLen int) {
	if !src.Is4() || !dst.Is4() {
		panic(fmt.Sprintf("layers: appendIPv4Header requires IPv4 addresses, got %v -> %v", src, dst))
	}
	start := len(b.buf)
	b.buf = append(b.buf, 0x45, 0) // version 4, IHL 5, TOS 0
	b.buf = binary.BigEndian.AppendUint16(b.buf, uint16(totalLen))
	b.buf = binary.BigEndian.AppendUint16(b.buf, 0)      // ID
	b.buf = binary.BigEndian.AppendUint16(b.buf, 0x4000) // DF
	b.buf = append(b.buf, ttl, proto, 0, 0)              // checksum placeholder
	s4, d4 := src.As4(), dst.As4()
	b.buf = append(b.buf, s4[:]...)
	b.buf = append(b.buf, d4[:]...)
	cs := internetChecksum(b.buf[start : start+20])
	binary.BigEndian.PutUint16(b.buf[start+10:], cs)
}

// internetChecksum computes the RFC 1071 ones-complement checksum of data.
func internetChecksum(data []byte) uint16 { return foldChecksum(onesSum(0, data)) }

// onesSum adds data to acc as big-endian 32-bit words, then a trailing
// 16-bit word and a trailing odd byte padded with zero as RFC 1071 pads
// it. Because 2^16 is 1 modulo 0xffff, the folded result equals the
// RFC's 16-bit sum; the 64-bit accumulator cannot overflow before 2^32
// words.
func onesSum(acc uint64, data []byte) uint64 {
	for ; len(data) >= 8; data = data[8:] {
		acc += uint64(binary.BigEndian.Uint32(data)) + uint64(binary.BigEndian.Uint32(data[4:]))
	}
	if len(data) >= 4 {
		acc += uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		acc += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		acc += uint64(data[0]) << 8
	}
	return acc
}

// foldChecksum folds a ones-complement sum to 16 bits and complements it.
func foldChecksum(acc uint64) uint16 {
	for acc > 0xffff {
		acc = acc&0xffff + acc>>16
	}
	return ^uint16(acc)
}

// transportChecksum computes the UDP/TCP checksum including the IPv4
// pseudo-header.
func transportChecksum(src, dst netip.Addr, proto uint8, segment []byte) uint16 {
	s4, d4 := src.As4(), dst.As4()
	acc := uint64(binary.BigEndian.Uint32(s4[:])) + uint64(binary.BigEndian.Uint32(d4[:])) +
		uint64(proto) + uint64(uint16(len(segment)))
	return foldChecksum(onesSum(acc, segment))
}

// EthernetIPv6UDP builds a complete Ethernet+IPv6+UDP packet around
// payload with a correct UDP checksum (mandatory for IPv6).
func EthernetIPv6UDP(src, dst netip.AddrPort, hopLimit uint8, payload []byte) []byte {
	if !src.Addr().Is6() || src.Addr().Is4In6() || !dst.Addr().Is6() || dst.Addr().Is4In6() {
		panic(fmt.Sprintf("layers: EthernetIPv6UDP requires IPv6 addresses, got %v -> %v", src.Addr(), dst.Addr()))
	}
	var b Builder
	sm, dm := mac6For(src.Addr()), mac6For(dst.Addr())
	b.buf = append(b.buf, dm[:]...)
	b.buf = append(b.buf, sm[:]...)
	b.buf = binary.BigEndian.AppendUint16(b.buf, EtherTypeIPv6)

	udpLenTotal := udpLen + len(payload)
	b.buf = append(b.buf, 0x60, 0, 0, 0)
	b.buf = binary.BigEndian.AppendUint16(b.buf, uint16(udpLenTotal))
	b.buf = append(b.buf, ProtoUDP, hopLimit)
	s16, d16 := src.Addr().As16(), dst.Addr().As16()
	b.buf = append(b.buf, s16[:]...)
	b.buf = append(b.buf, d16[:]...)

	udpStart := len(b.buf)
	b.buf = binary.BigEndian.AppendUint16(b.buf, src.Port())
	b.buf = binary.BigEndian.AppendUint16(b.buf, dst.Port())
	b.buf = binary.BigEndian.AppendUint16(b.buf, uint16(udpLenTotal))
	b.buf = binary.BigEndian.AppendUint16(b.buf, 0)
	b.buf = append(b.buf, payload...)
	cs := transportChecksum6(src.Addr(), dst.Addr(), ProtoUDP, b.buf[udpStart:])
	if cs == 0 {
		cs = 0xffff
	}
	binary.BigEndian.PutUint16(b.buf[udpStart+6:], cs)
	return b.Bytes()
}

func mac6For(a netip.Addr) [6]byte {
	var m [6]byte
	b := a.As16()
	m[0] = 0x02
	m[1] = 0x5b
	copy(m[2:], b[12:16])
	return m
}

// transportChecksum6 computes the UDP/TCP checksum over the IPv6
// pseudo-header.
func transportChecksum6(src, dst netip.Addr, proto uint8, segment []byte) uint16 {
	var pseudo [40]byte
	s16, d16 := src.As16(), dst.As16()
	copy(pseudo[0:16], s16[:])
	copy(pseudo[16:32], d16[:])
	binary.BigEndian.PutUint32(pseudo[32:36], uint32(len(segment)))
	pseudo[39] = proto
	return foldChecksum(onesSum(onesSum(0, pseudo[:]), segment))
}
