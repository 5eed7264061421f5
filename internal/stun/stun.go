// Package stun implements the subset of Session Traversal Utilities for
// NAT (RFC 5389) that Zoom uses during peer-to-peer connection
// establishment: binding requests and success responses with
// (XOR-)MAPPED-ADDRESS attributes, exchanged in cleartext on UDP port
// 3478 with a Zoom zone controller before a P2P media flow starts
// (paper §4.1, Figure 2).
package stun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Port is the well-known STUN UDP port used by Zoom zone controllers.
const Port = 3478

// MagicCookie is the fixed value in every RFC 5389 message.
const MagicCookie uint32 = 0x2112a442

// headerLen is the fixed STUN message header length.
const headerLen = 20

// Message types (method | class) used by Zoom's exchange.
const (
	TypeBindingRequest  uint16 = 0x0001
	TypeBindingResponse uint16 = 0x0101
	TypeBindingError    uint16 = 0x0111
)

// Attribute types.
const (
	AttrMappedAddress    uint16 = 0x0001
	AttrXorMappedAddress uint16 = 0x0020
	AttrSoftware         uint16 = 0x8022
	AttrFingerprint      uint16 = 0x8028
)

// Errors returned by the codec.
var (
	ErrNotSTUN   = errors.New("stun: not a STUN message")
	ErrTruncated = errors.New("stun: truncated message")
)

// TransactionID is the 96-bit STUN transaction identifier.
type TransactionID [12]byte

// Attribute is a raw STUN attribute.
type Attribute struct {
	Type  uint16
	Value []byte
}

// Message is a decoded STUN message.
type Message struct {
	Type          uint16
	TransactionID TransactionID
	Attributes    []Attribute
}

// IsBindingResponse reports whether the message is a binding success
// response.
func (m *Message) IsBindingResponse() bool { return m.Type == TypeBindingResponse }

// Attr returns the first attribute of the given type.
func (m *Message) Attr(t uint16) ([]byte, bool) {
	for _, a := range m.Attributes {
		if a.Type == t {
			return a.Value, true
		}
	}
	return nil, false
}

// MappedAddress extracts the reflexive transport address from either an
// XOR-MAPPED-ADDRESS or a MAPPED-ADDRESS attribute.
func (m *Message) MappedAddress() (netip.AddrPort, bool) {
	if v, ok := m.Attr(AttrXorMappedAddress); ok {
		return decodeAddress(v, m.TransactionID, true)
	}
	if v, ok := m.Attr(AttrMappedAddress); ok {
		return decodeAddress(v, m.TransactionID, false)
	}
	return netip.AddrPort{}, false
}

func decodeAddress(v []byte, tid TransactionID, xored bool) (netip.AddrPort, bool) {
	if len(v) < 8 {
		return netip.AddrPort{}, false
	}
	family := v[1]
	port := binary.BigEndian.Uint16(v[2:4])
	if xored {
		port ^= uint16(MagicCookie >> 16)
	}
	switch family {
	case 0x01: // IPv4
		var a [4]byte
		copy(a[:], v[4:8])
		if xored {
			var cookie [4]byte
			binary.BigEndian.PutUint32(cookie[:], MagicCookie)
			for i := range a {
				a[i] ^= cookie[i]
			}
		}
		return netip.AddrPortFrom(netip.AddrFrom4(a), port), true
	case 0x02: // IPv6
		if len(v) < 20 {
			return netip.AddrPort{}, false
		}
		var a [16]byte
		copy(a[:], v[4:20])
		if xored {
			var key [16]byte
			binary.BigEndian.PutUint32(key[0:4], MagicCookie)
			copy(key[4:], tid[:])
			for i := range a {
				a[i] ^= key[i]
			}
		}
		return netip.AddrPortFrom(netip.AddrFrom16(a), port), true
	}
	return netip.AddrPort{}, false
}

// Parse decodes a STUN message. Is reports quickly (without full parsing)
// whether a payload could be STUN; Parse validates the structure fully.
func Parse(data []byte) (Message, error) {
	var m Message
	if len(data) < headerLen {
		return m, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if data[0]&0xc0 != 0 {
		return m, fmt.Errorf("%w: first two bits set", ErrNotSTUN)
	}
	if binary.BigEndian.Uint32(data[4:8]) != MagicCookie {
		return m, fmt.Errorf("%w: bad magic cookie", ErrNotSTUN)
	}
	m.Type = binary.BigEndian.Uint16(data[0:2])
	msgLen := int(binary.BigEndian.Uint16(data[2:4]))
	if msgLen%4 != 0 {
		return m, fmt.Errorf("%w: length %d not a multiple of 4", ErrNotSTUN, msgLen)
	}
	if len(data) < headerLen+msgLen {
		return m, fmt.Errorf("%w: declared %d, have %d", ErrTruncated, msgLen, len(data)-headerLen)
	}
	copy(m.TransactionID[:], data[8:20])
	rest := data[headerLen : headerLen+msgLen]
	for len(rest) > 0 {
		if len(rest) < 4 {
			return m, fmt.Errorf("%w: attribute header", ErrTruncated)
		}
		at := binary.BigEndian.Uint16(rest[0:2])
		al := int(binary.BigEndian.Uint16(rest[2:4]))
		padded := (al + 3) &^ 3
		if len(rest) < 4+padded {
			return m, fmt.Errorf("%w: attribute body (type %#04x len %d)", ErrTruncated, at, al)
		}
		m.Attributes = append(m.Attributes, Attribute{Type: at, Value: rest[4 : 4+al]})
		rest = rest[4+padded:]
	}
	return m, nil
}

// Is reports whether data plausibly begins with a STUN message: correct
// leading bits, magic cookie, and a consistent length field.
func Is(data []byte) bool {
	if len(data) < headerLen {
		return false
	}
	if data[0]&0xc0 != 0 {
		return false
	}
	if binary.BigEndian.Uint32(data[4:8]) != MagicCookie {
		return false
	}
	msgLen := int(binary.BigEndian.Uint16(data[2:4]))
	return msgLen%4 == 0 && len(data) >= headerLen+msgLen
}

// Marshal serializes the message.
func (m *Message) Marshal() []byte {
	bodyLen := 0
	for _, a := range m.Attributes {
		bodyLen += 4 + (len(a.Value)+3)&^3
	}
	out := make([]byte, 0, headerLen+bodyLen)
	out = binary.BigEndian.AppendUint16(out, m.Type)
	out = binary.BigEndian.AppendUint16(out, uint16(bodyLen))
	out = binary.BigEndian.AppendUint32(out, MagicCookie)
	out = append(out, m.TransactionID[:]...)
	for _, a := range m.Attributes {
		out = binary.BigEndian.AppendUint16(out, a.Type)
		out = binary.BigEndian.AppendUint16(out, uint16(len(a.Value)))
		out = append(out, a.Value...)
		if pad := (4 - len(a.Value)%4) % 4; pad > 0 {
			out = append(out, make([]byte, pad)...)
		}
	}
	return out
}

// NewBindingRequest builds the binding request Zoom clients send to a zone
// controller from the ephemeral port later used for P2P media.
func NewBindingRequest(tid TransactionID) Message {
	return Message{
		Type:          TypeBindingRequest,
		TransactionID: tid,
		Attributes: []Attribute{
			{Type: AttrSoftware, Value: []byte("zoomlens-sim")},
		},
	}
}

// NewBindingResponse builds a binding success response reporting mapped as
// the client's reflexive address, encoded as XOR-MAPPED-ADDRESS.
func NewBindingResponse(tid TransactionID, mapped netip.AddrPort) Message {
	var v []byte
	port := mapped.Port() ^ uint16(MagicCookie>>16)
	if mapped.Addr().Is4() {
		v = make([]byte, 8)
		v[1] = 0x01
		binary.BigEndian.PutUint16(v[2:4], port)
		a := mapped.Addr().As4()
		var cookie [4]byte
		binary.BigEndian.PutUint32(cookie[:], MagicCookie)
		for i := 0; i < 4; i++ {
			v[4+i] = a[i] ^ cookie[i]
		}
	} else {
		v = make([]byte, 20)
		v[1] = 0x02
		binary.BigEndian.PutUint16(v[2:4], port)
		a := mapped.Addr().As16()
		var key [16]byte
		binary.BigEndian.PutUint32(key[0:4], MagicCookie)
		copy(key[4:], tid[:])
		for i := 0; i < 16; i++ {
			v[4+i] = a[i] ^ key[i]
		}
	}
	return Message{
		Type:          TypeBindingResponse,
		TransactionID: tid,
		Attributes:    []Attribute{{Type: AttrXorMappedAddress, Value: v}},
	}
}
