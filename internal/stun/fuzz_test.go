package stun

import (
	"net/netip"
	"testing"
)

// FuzzSTUNParse drives the STUN codec with arbitrary datagrams: Parse
// and the attribute accessors must never panic, and any message that
// parses must survive a marshal → parse round trip with its identity
// intact.
func FuzzSTUNParse(f *testing.F) {
	tid := TransactionID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	req := NewBindingRequest(tid)
	f.Add(req.Marshal())
	resp := NewBindingResponse(tid, netip.MustParseAddrPort("192.0.2.9:43210"))
	f.Add(resp.Marshal())
	f.Add([]byte{})
	f.Add(make([]byte, headerLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return
		}
		_, _ = m.MappedAddress()
		out := m.Marshal()
		if !Is(out) {
			t.Fatal("marshal output fails Is()")
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("re-parse of marshal output failed: %v", err)
		}
		if back.Type != m.Type || back.TransactionID != m.TransactionID {
			t.Fatalf("round trip changed identity: %v/%v -> %v/%v", m.Type, m.TransactionID, back.Type, back.TransactionID)
		}
	})
}
