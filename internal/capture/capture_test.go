package capture

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/sim"
	"zoomlens/internal/stun"
)

var (
	zoomNets   = []netip.Prefix{netip.MustParsePrefix("52.81.0.0/16"), netip.MustParsePrefix("149.137.0.0/17")}
	campusNets = []netip.Prefix{netip.MustParsePrefix("10.8.0.0/16")}
	t0         = time.Date(2022, 5, 5, 9, 0, 0, 0, time.UTC)
)

func decode(t *testing.T, raw []byte) *layers.Packet {
	t.Helper()
	var p layers.Packet
	if err := (&layers.Parser{}).Parse(raw, &p); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &p
}

func newTestFilter() *Filter {
	return NewFilter(Config{ZoomNetworks: zoomNets, CampusNetworks: campusNets})
}

func TestClassifyServerTraffic(t *testing.T) {
	f := newTestFilter()
	raw := layers.EthernetIPv4UDP(ap("10.8.1.2:52000"), ap("52.81.3.4:8801"), 64, []byte("media"))
	if v := f.Classify(decode(t, raw), t0); v != KeepServer {
		t.Errorf("verdict = %v, want KeepServer", v)
	}
	// Reverse direction too.
	raw = layers.EthernetIPv4UDP(ap("52.81.3.4:8801"), ap("10.8.1.2:52000"), 64, []byte("media"))
	if v := f.Classify(decode(t, raw), t0); v != KeepServer {
		t.Errorf("reverse verdict = %v, want KeepServer", v)
	}
	// TCP 443 control traffic to a Zoom server.
	rawTCP := new(layers.Builder).BuildTCP(ap("10.8.1.2:40000"), ap("52.81.3.4:443"), 64, 1, 1, layers.TCPAck, 100, nil)
	if v := f.Classify(decode(t, rawTCP), t0); v != KeepServer {
		t.Errorf("tcp verdict = %v, want KeepServer", v)
	}
}

func TestClassifyDropsNonZoom(t *testing.T) {
	f := newTestFilter()
	raw := layers.EthernetIPv4UDP(ap("10.8.1.2:52000"), ap("93.184.216.34:443"), 64, []byte("quic"))
	if v := f.Classify(decode(t, raw), t0); v != Drop {
		t.Errorf("verdict = %v, want Drop", v)
	}
	if f.Stats().Dropped != 1 {
		t.Errorf("stats = %+v", f.Stats())
	}
}

func stunPacket(client, server netip.AddrPort) []byte {
	m := stun.NewBindingRequest(stun.TransactionID{7})
	return layers.EthernetIPv4UDP(client, server, 64, m.Marshal())
}

func TestP2PDetectionLifecycle(t *testing.T) {
	f := newTestFilter()
	client := ap("10.8.1.2:52143")
	zc := ap("52.81.200.1:3478")
	peer := ap("203.0.113.50:44000")

	// Before STUN, a P2P-looking flow drops.
	media := layers.EthernetIPv4UDP(client, peer, 64, []byte("x"))
	if v := f.Classify(decode(t, media), t0); v != Drop {
		t.Fatalf("pre-STUN verdict = %v, want Drop", v)
	}

	// STUN exchange arms the table with the client endpoint.
	if v := f.Classify(decode(t, stunPacket(client, zc)), t0); v != KeepSTUN {
		t.Fatalf("stun verdict = %v, want KeepSTUN", v)
	}
	if f.P2PTableLen() != 1 {
		t.Fatalf("table len = %d", f.P2PTableLen())
	}

	// The same client endpoint to a new peer is now P2P, both directions.
	if v := f.Classify(decode(t, media), t0.Add(5*time.Second)); v != KeepP2P {
		t.Errorf("post-STUN verdict = %v, want KeepP2P", v)
	}
	back := layers.EthernetIPv4UDP(peer, client, 64, []byte("y"))
	if v := f.Classify(decode(t, back), t0.Add(6*time.Second)); v != KeepP2P {
		t.Errorf("reverse verdict = %v, want KeepP2P", v)
	}
}

func TestP2PTimeoutExpires(t *testing.T) {
	f := NewFilter(Config{ZoomNetworks: zoomNets, CampusNetworks: campusNets, P2PTimeout: 10 * time.Second})
	client := ap("10.8.1.2:52143")
	f.Classify(decode(t, stunPacket(client, ap("52.81.200.1:3478"))), t0)
	media := layers.EthernetIPv4UDP(client, ap("203.0.113.50:44000"), 64, []byte("x"))
	if v := f.Classify(decode(t, media), t0.Add(11*time.Second)); v != Drop {
		t.Errorf("expired verdict = %v, want Drop", v)
	}
	if f.Stats().P2PEvicted != 1 {
		t.Errorf("evictions = %d", f.Stats().P2PEvicted)
	}
}

func TestP2PRefreshKeepsEntryAlive(t *testing.T) {
	f := NewFilter(Config{ZoomNetworks: zoomNets, CampusNetworks: campusNets, P2PTimeout: 10 * time.Second})
	client := ap("10.8.1.2:52143")
	peer := ap("203.0.113.50:44000")
	f.Classify(decode(t, stunPacket(client, ap("52.81.200.1:3478"))), t0)
	// Media every 5 s for a minute: each packet refreshes the entry.
	for i := 1; i <= 12; i++ {
		media := layers.EthernetIPv4UDP(client, peer, 64, []byte("x"))
		if v := f.Classify(decode(t, media), t0.Add(time.Duration(i*5)*time.Second)); v != KeepP2P {
			t.Fatalf("packet %d verdict = %v, want KeepP2P", i, v)
		}
	}
}

func TestSTUNFromOffCampusNotRegistered(t *testing.T) {
	f := newTestFilter()
	offCampus := ap("198.51.100.9:40000")
	if v := f.Classify(decode(t, stunPacket(offCampus, ap("52.81.200.1:3478"))), t0); v != KeepSTUN {
		t.Fatalf("verdict = %v", v)
	}
	if f.P2PTableLen() != 0 {
		t.Errorf("off-campus endpoint registered; table len = %d", f.P2PTableLen())
	}
}

func TestNonSTUNPort3478PayloadNotRegistered(t *testing.T) {
	f := newTestFilter()
	// Port 3478 to a Zoom server but payload is not STUN: stays server
	// traffic, does not arm the table.
	raw := layers.EthernetIPv4UDP(ap("10.8.1.2:52143"), ap("52.81.200.1:3478"), 64, []byte("not stun at all......"))
	if v := f.Classify(decode(t, raw), t0); v != KeepServer {
		t.Errorf("verdict = %v, want KeepServer", v)
	}
	if f.P2PTableLen() != 0 {
		t.Errorf("table len = %d, want 0", f.P2PTableLen())
	}
}

func TestValidateP2P(t *testing.T) {
	h := sim.Header{Layout: sim.LayoutP2P, Kind: sim.KindAudio, MediaSeq: 1, MediaTS: 2, PT: sim.PTAudioSpeak, SSRC: 5}
	if !ValidateP2P(append(sim.AppendHeaders(nil, &h), "audio"...)) {
		t.Error("ValidateP2P = false for genuine Zoom P2P payload")
	}
	if ValidateP2P([]byte("definitely not zoom media")) {
		t.Error("ValidateP2P = true for garbage")
	}
}

func TestAnonymizerDeterministicAndCampusOnly(t *testing.T) {
	an := NewAnonymizer([]byte("secret"), campusNets)
	campus := netip.MustParseAddr("10.8.1.2")
	server := netip.MustParseAddr("52.81.3.4")
	a1, a2 := an.Addr(campus), an.Addr(campus)
	if a1 != a2 {
		t.Error("anonymization not deterministic")
	}
	if a1 == campus {
		t.Error("campus address not anonymized")
	}
	if !a1.Is4() {
		t.Error("anonymized v4 address is not v4")
	}
	if got := an.Addr(server); got != server {
		t.Errorf("server address changed: %v", got)
	}
	// Different key → different mapping.
	an2 := NewAnonymizer([]byte("other"), campusNets)
	if an2.Addr(campus) == a1 {
		t.Error("different keys produced the same mapping")
	}
	// Distinct inputs stay distinct (collision would break flow analysis).
	other := netip.MustParseAddr("10.8.1.3")
	if an.Addr(other) == a1 {
		t.Error("two campus addresses collided")
	}
}

func TestAnonymizeInPlacePreservesParsability(t *testing.T) {
	an := NewAnonymizer([]byte("k"), campusNets)
	raw := layers.EthernetIPv4UDP(ap("10.8.1.2:52000"), ap("52.81.3.4:8801"), 64, []byte("payload"))
	an.AnonymizeInPlace(raw)
	var p layers.Packet
	if err := (&layers.Parser{}).Parse(raw, &p); err != nil {
		t.Fatalf("anonymized frame failed to parse: %v", err)
	}
	if p.IPv4.Src == netip.MustParseAddr("10.8.1.2") {
		t.Error("source not anonymized")
	}
	if p.IPv4.Dst != netip.MustParseAddr("52.81.3.4") {
		t.Error("server address should be preserved")
	}
	// The rewritten IPv4 header, checksum included, is the one a frame
	// built with the anonymized source carries.
	built := layers.EthernetIPv4UDP(netip.AddrPortFrom(p.IPv4.Src, 52000), ap("52.81.3.4:8801"), 64, []byte("payload"))
	if !bytes.Equal(raw[14:34], built[14:34]) {
		t.Error("IPv4 checksum invalid after anonymization")
	}
	if string(p.Payload) != "payload" {
		t.Errorf("payload = %q", p.Payload)
	}
}

func TestResourceModelTable5Shape(t *testing.T) {
	reports := DefaultPipelineModel().Resources(DefaultTofinoBudget())
	if len(reports) != 3 {
		t.Fatalf("components = %d, want 3", len(reports))
	}
	byName := map[string]UsageReport{}
	for _, r := range reports {
		byName[r.Component] = r
	}
	ip, p2p, anon := byName["Zoom IP Match"], byName["P2P Detection"], byName["Anonymization"]
	// Table 5 shapes: the IP match is tiny; P2P detection dominates SRAM
	// and hash units; anonymization uses the most stages and instructions.
	if ip.Stages != 2 || p2p.Stages != 7 || anon.Stages != 11 {
		t.Errorf("stages = %d/%d/%d, want 2/7/11", ip.Stages, p2p.Stages, anon.Stages)
	}
	if !(p2p.SRAMPct > ip.SRAMPct && p2p.SRAMPct > anon.SRAMPct) {
		t.Errorf("P2P should dominate SRAM: %v / %v / %v", ip.SRAMPct, p2p.SRAMPct, anon.SRAMPct)
	}
	if !(p2p.HashUnitsPct > anon.HashUnitsPct && anon.HashUnitsPct > ip.HashUnitsPct) {
		t.Errorf("hash unit ordering wrong: %v / %v / %v", ip.HashUnitsPct, p2p.HashUnitsPct, anon.HashUnitsPct)
	}
	if !(anon.InstrPct > p2p.InstrPct && p2p.InstrPct > ip.InstrPct) {
		t.Errorf("instruction ordering wrong: %v / %v / %v", ip.InstrPct, p2p.InstrPct, anon.InstrPct)
	}
	// "Lightweight": every metric under 20 % of the budget.
	for _, r := range reports {
		for name, v := range map[string]float64{"tcam": r.TCAMPct, "sram": r.SRAMPct, "instr": r.InstrPct, "hash": r.HashUnitsPct} {
			if v > 20 {
				t.Errorf("%s %s = %.1f%%, want < 20%%", r.Component, name, v)
			}
		}
	}
	if s := FormatTable(reports); len(s) == 0 {
		t.Error("FormatTable empty")
	}
}

func TestResourceModelWithoutAnonymization(t *testing.T) {
	m := DefaultPipelineModel()
	m.IncludeAnonymization = false
	if got := len(m.Resources(DefaultTofinoBudget())); got != 2 {
		t.Errorf("components = %d, want 2", got)
	}
}

func ap(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }

// benchClassify times Filter.Classify on one packet to dst, at the unit
// tests' two-prefix list and at production list size (the 117 networks
// of DefaultZoomNetworks, which is where a linear scan would show); with
// the P2P table empty, as on a tap that has seen no STUN yet, and armed
// with one endpoint, which is what makes stage 3 probe it.
func benchClassify(b *testing.B, dst string, want Verdict) {
	raw := layers.EthernetIPv4UDP(ap("10.8.1.2:52000"), ap(dst), 64, make([]byte, 600))
	var p layers.Packet
	if err := (&layers.Parser{}).Parse(raw, &p); err != nil {
		b.Fatal(err)
	}
	run := func(name string, nets []netip.Prefix, armed bool) {
		b.Run(name, func(b *testing.B) {
			f := NewFilter(Config{ZoomNetworks: nets, CampusNetworks: campusNets})
			if armed {
				f.registerSTUN(netip.MustParseAddr("10.8.9.9"), nets[0].Addr(), 40000, stun.Port, t0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v := f.Classify(&p, t0); v != want {
					b.Fatal(v)
				}
			}
		})
	}
	run("prefixes=2", zoomNets, false)
	run("prefixes=117", defaultZoomNetworks(), false)
	run("prefixes=117/p2p-armed", defaultZoomNetworks(), true)
}

func BenchmarkClassifyServer(b *testing.B) { benchClassify(b, "52.81.3.4:8801", KeepServer) }

func BenchmarkClassifyDrop(b *testing.B) { benchClassify(b, "93.184.1.1:443", Drop) }

// TestP2PPortReuseFalsePositiveFiltered reproduces §4.1's false-positive
// scenario: after a meeting's STUN exchange, a different application
// reuses the same ephemeral port. Without format validation the flow is
// (wrongly) kept; with it, only genuine Zoom payloads pass.
func TestP2PPortReuseFalsePositiveFiltered(t *testing.T) {
	client := ap("10.8.1.2:52143")
	zc := ap("52.81.200.1:3478")
	otherPeer := ap("198.51.100.77:9999")

	h := sim.Header{Layout: sim.LayoutP2P, Kind: sim.KindVideo, MediaSeq: 1, MediaTS: 2, FramePkts: 1, PT: sim.PTVideoMain, SSRC: 5}
	zoomPayload := append(sim.AppendHeaders(nil, &h), 'x')

	for _, validate := range []bool{false, true} {
		f := NewFilter(Config{
			ZoomNetworks: zoomNets, CampusNetworks: campusNets,
			ValidateP2PPayload: validate,
		})
		f.Classify(decode(t, stunPacket(client, zc)), t0)
		// Port reuse: a game/QUIC-ish payload from the armed endpoint.
		garbage := layers.EthernetIPv4UDP(client, otherPeer, 64, []byte("totally not zoom media traffic"))
		v := f.Classify(decode(t, garbage), t0.Add(time.Second))
		if validate && v != Drop {
			t.Errorf("validate=on: verdict = %v, want Drop", v)
		}
		if !validate && v != KeepP2P {
			t.Errorf("validate=off: verdict = %v, want KeepP2P (the paper's false positive)", v)
		}
		// A genuine Zoom P2P payload passes either way.
		genuine := layers.EthernetIPv4UDP(client, ap("203.0.113.5:44000"), 64, zoomPayload)
		if v := f.Classify(decode(t, genuine), t0.Add(2*time.Second)); v != KeepP2P {
			t.Errorf("validate=%v: genuine payload verdict = %v", validate, v)
		}
		if validate && f.Stats().P2PFormatRejected != 1 {
			t.Errorf("rejected = %d, want 1", f.Stats().P2PFormatRejected)
		}
	}
}
