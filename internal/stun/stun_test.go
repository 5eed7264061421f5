package stun

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestBindingRequestRoundTrip(t *testing.T) {
	tid := TransactionID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	req := NewBindingRequest(tid)
	wire := req.Marshal()
	if !Is(wire) {
		t.Fatal("Is = false for a valid binding request")
	}
	got, err := Parse(wire)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.Type != TypeBindingRequest {
		t.Errorf("type = %#04x", got.Type)
	}
	if got.TransactionID != tid {
		t.Error("transaction ID mismatch")
	}
	if sw, ok := got.Attr(AttrSoftware); !ok || string(sw) != "zoomlens-sim" {
		t.Errorf("software attr = %q ok=%v", sw, ok)
	}
}

func TestBindingResponseIPv4(t *testing.T) {
	tid := TransactionID{0xa5, 1, 2}
	mapped := netip.MustParseAddrPort("203.0.113.7:52143")
	resp := NewBindingResponse(tid, mapped)
	got, err := Parse(resp.Marshal())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !got.IsBindingResponse() {
		t.Errorf("type = %#04x", got.Type)
	}
	addr, ok := got.MappedAddress()
	if !ok {
		t.Fatal("MappedAddress not found")
	}
	if addr != mapped {
		t.Errorf("mapped = %v, want %v", addr, mapped)
	}
}

func TestBindingResponseIPv6(t *testing.T) {
	tid := TransactionID{0x5a, 3, 4}
	mapped := netip.MustParseAddrPort("[2001:db8::99]:4567")
	resp := NewBindingResponse(tid, mapped)
	got, err := Parse(resp.Marshal())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	addr, ok := got.MappedAddress()
	if !ok {
		t.Fatal("MappedAddress not found")
	}
	if addr != mapped {
		t.Errorf("mapped = %v, want %v", addr, mapped)
	}
}

func TestPlainMappedAddress(t *testing.T) {
	// Hand-build a MAPPED-ADDRESS (non-XOR) attribute.
	var tid TransactionID
	v := []byte{0, 0x01, 0x1f, 0x90, 10, 0, 0, 1} // port 8080, 10.0.0.1
	m := Message{Type: TypeBindingResponse, TransactionID: tid,
		Attributes: []Attribute{{Type: AttrMappedAddress, Value: v}}}
	got, err := Parse(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	addr, ok := got.MappedAddress()
	if !ok || addr != netip.MustParseAddrPort("10.0.0.1:8080") {
		t.Errorf("mapped = %v ok=%v", addr, ok)
	}
}

func TestIsRejectsNonSTUN(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 10),
		func() []byte { // RTP-looking payload: version bits set
			b := make([]byte, 20)
			b[0] = 0x80
			return b
		}(),
		make([]byte, 20), // zero cookie
		func() []byte { // right cookie, bad length alignment
			m := NewBindingRequest(TransactionID{})
			b := m.Marshal()
			b[3] = 1
			return b
		}(),
	}
	for i, c := range cases {
		if Is(c) {
			t.Errorf("case %d: Is = true", i)
		}
		if _, err := Parse(c); err == nil {
			t.Errorf("case %d: Parse succeeded", i)
		}
	}
}

func TestParseTruncatedAttribute(t *testing.T) {
	m := NewBindingRequest(TransactionID{1, 2, 3})
	wire := m.Marshal()
	// Declare a longer attribute than present by bumping the attr length.
	wire[headerLen+3] += 40
	wire[3] += 0 // keep message length; attribute now overruns
	if _, err := Parse(wire); err == nil {
		t.Error("expected truncated attribute error")
	}
}

func TestAttributePaddingRoundTrip(t *testing.T) {
	// Attribute values of every length mod 4 must survive.
	for n := 0; n < 9; n++ {
		val := bytes.Repeat([]byte{0xab}, n)
		m := Message{Type: TypeBindingRequest, Attributes: []Attribute{{Type: 0x7777, Value: val}}}
		got, err := Parse(m.Marshal())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		v, ok := got.Attr(0x7777)
		if !ok || !bytes.Equal(v, val) {
			t.Errorf("n=%d: attr = %x ok=%v", n, v, ok)
		}
	}
}

func TestQuickXorMappedAddressRoundTrip(t *testing.T) {
	f := func(a [4]byte, port uint16, tid TransactionID) bool {
		mapped := netip.AddrPortFrom(netip.AddrFrom4(a), port)
		resp := NewBindingResponse(tid, mapped)
		got, err := Parse(resp.Marshal())
		if err != nil {
			return false
		}
		addr, ok := got.MappedAddress()
		return ok && addr == mapped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIs(b *testing.B) {
	m := NewBindingRequest(TransactionID{1, 2, 3})
	wire := m.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Is(wire) {
			b.Fatal("not stun")
		}
	}
}

func BenchmarkParse(b *testing.B) {
	m := NewBindingResponse(TransactionID{9}, netip.MustParseAddrPort("10.0.0.1:5000"))
	wire := m.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}
