// Package capture implements the Zoom traffic identification pipeline of
// the paper: the stateless match on Zoom's published server networks, the
// stateful STUN-based detection of peer-to-peer media flows (§4.1), and a
// software model of the P4/Tofino data-plane program of §6.1 (Figure 13)
// including its anonymization stage and an analytic resource-usage model
// that regenerates Table 5.
package capture

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"net/netip"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/stun"
	"zoomlens/internal/webrtc"
	"zoomlens/internal/zoom"
)

// Verdict is the outcome of the filter for one packet.
type Verdict int

// Filter outcomes.
const (
	// Drop means the packet is not Zoom traffic.
	Drop Verdict = iota
	// KeepServer means the packet matched a Zoom server network.
	KeepServer
	// KeepSTUN means the packet is a STUN exchange with a Zoom server.
	KeepSTUN
	// KeepP2P means the packet matched the stateful P2P table.
	KeepP2P
)

func (v Verdict) String() string {
	switch v {
	case Drop:
		return "drop"
	case KeepServer:
		return "server"
	case KeepSTUN:
		return "stun"
	case KeepP2P:
		return "p2p"
	}
	return "unknown"
}

// Keep reports whether the packet should be captured.
func (v Verdict) Keep() bool { return v != Drop }

// Config parameterizes the filter.
type Config struct {
	// ZoomNetworks is the list of server prefixes published by Zoom.
	ZoomNetworks []netip.Prefix
	// CampusNetworks identifies on-campus clients; used to pick which
	// side of a STUN exchange to remember and which addresses to
	// anonymize.
	CampusNetworks []netip.Prefix
	// P2PTimeout bounds how long a STUN-registered (address, port) pair
	// remains a valid P2P match (§4.1: "within a configurable timeout").
	P2PTimeout time.Duration
	// MaxP2PEntries bounds the stateful tables, mirroring the fixed-size
	// register arrays of the Tofino program.
	MaxP2PEntries int
	// ValidateP2PPayload additionally checks that packets matched by the
	// stateful P2P table actually carry the Zoom media format, filtering
	// the port-reuse false positives §4.1 describes ("they can easily be
	// filtered out by inspecting the packet format"). The Tofino cannot
	// do this at line rate; the software pipeline can.
	ValidateP2PPayload bool
	// GenericRTC widens the filter beyond Zoom-specific heuristics: a
	// STUN exchange on the well-known port arms the endpoint table even
	// when neither side is in a Zoom server network (a standards RTC
	// service's media servers are not in Zoom's published prefixes, so
	// the STUN handshake is the only stateless hint that the endpoint
	// is about to carry media), and P2P payload validation accepts
	// standards RTP in addition to the Zoom media format. The analyzer
	// enables it when a non-Zoom protocol plugin is configured.
	GenericRTC bool
}

// DefaultP2PTimeout matches the tens-of-seconds window in which Zoom
// establishes the direct connection after the STUN exchange (§3).
const DefaultP2PTimeout = 60 * time.Second

// Filter classifies packets per Figure 13. It is not safe for concurrent
// use; the Tofino pipeline it models is inherently sequential per packet.
type Filter struct {
	cfg      Config
	zoomNets *PrefixSet
	campus   *PrefixSet
	p2p      map[netip.AddrPort]time.Time // campus-side STUN endpoints
	stats    FilterStats
}

// FilterStats counts filter decisions, mirroring the counters the authors
// added to their P4 program (Appendix A, Figure 17).
type FilterStats struct {
	Processed   uint64
	ZoomServer  uint64
	ZoomSTUN    uint64
	ZoomP2P     uint64
	Dropped     uint64
	P2PEvicted  uint64
	P2PInserted uint64
	// P2PFormatRejected counts table hits whose payload failed Zoom
	// format validation (port-reuse false positives).
	P2PFormatRejected uint64
}

// NewFilter builds a filter. Zero-valued timeout and table size take
// defaults.
func NewFilter(cfg Config) *Filter {
	if cfg.P2PTimeout == 0 {
		cfg.P2PTimeout = DefaultP2PTimeout
	}
	if cfg.MaxP2PEntries == 0 {
		cfg.MaxP2PEntries = 65536
	}
	return &Filter{
		cfg:      cfg,
		zoomNets: NewPrefixSet(cfg.ZoomNetworks),
		campus:   NewPrefixSet(cfg.CampusNetworks),
		p2p:      make(map[netip.AddrPort]time.Time),
	}
}

// Stats returns a copy of the decision counters.
func (f *Filter) Stats() FilterStats { return f.stats }

// ZoomNetworks and CampusNetworks return the filter's two prefix sets,
// for layers behind it that must tell servers from clients exactly as
// the filter did.
func (f *Filter) ZoomNetworks() *PrefixSet   { return f.zoomNets }
func (f *Filter) CampusNetworks() *PrefixSet { return f.campus }

// Classify runs one decoded packet through the pipeline and returns the
// verdict. ts is the capture timestamp, used for P2P table aging.
func (f *Filter) Classify(pkt *layers.Packet, ts time.Time) Verdict {
	var srcPort, dstPort uint16
	var payload []byte
	if pkt.HasUDP {
		srcPort, dstPort, payload = pkt.UDP.SrcPort, pkt.UDP.DstPort, pkt.Payload
	}
	return f.ClassifyFlow(pkt.SrcAddr(), pkt.DstAddr(), pkt.HasUDP, srcPort, dstPort, payload, ts)
}

// ClassifyFlow runs the pipeline on pre-extracted flow features, exactly
// equivalent to Classify on a decoded packet with those features. It
// exists for dispatchers that route on raw header bytes and defer the
// full decode to a worker: the filter is the one stateful, cross-flow
// stage that must still see every packet in global capture order, and
// this entry point lets it do so without a full per-packet decode.
// srcPort, dstPort, and payload are only consulted when hasUDP is true
// (payload must then be the UDP payload, for STUN and Zoom format
// checks).
func (f *Filter) ClassifyFlow(src, dst netip.Addr, hasUDP bool, srcPort, dstPort uint16, payload []byte, ts time.Time) Verdict {
	f.stats.Processed++
	if !src.IsValid() || !dst.IsValid() {
		f.stats.Dropped++
		return Drop
	}

	// Stage 1: stateless match on Zoom server networks (TCP 443 control
	// traffic and UDP 8801 media both land here).
	if f.zoomNets.Contains(src) || f.zoomNets.Contains(dst) {
		// Stage 2: STUN exchanges with a Zoom server on port 3478 arm the
		// P2P tables with the campus endpoint (IP + ephemeral port).
		if hasUDP && (srcPort == stun.Port || dstPort == stun.Port) && stun.Is(payload) {
			f.registerSTUN(src, dst, srcPort, dstPort, ts)
			f.stats.ZoomSTUN++
			return KeepSTUN
		}
		f.stats.ZoomServer++
		return KeepServer
	}

	// Generic RTC mode: STUN exchanges with any server on the
	// well-known port arm the endpoint table (stage 2 without the
	// server-prefix precondition).
	if f.cfg.GenericRTC && hasUDP && (srcPort == stun.Port || dstPort == stun.Port) && stun.Is(payload) {
		f.registerSTUN(src, dst, srcPort, dstPort, ts)
		f.stats.ZoomSTUN++
		return KeepSTUN
	}

	// Stage 3: stateful P2P lookup — non-server UDP whose campus-side
	// endpoint was recently seen in a STUN exchange. An empty table has
	// nothing to hit, refresh or expire, so it is not probed.
	if hasUDP && len(f.p2p) > 0 {
		if f.lookupP2P(netip.AddrPortFrom(src, srcPort), ts) ||
			f.lookupP2P(netip.AddrPortFrom(dst, dstPort), ts) {
			if f.cfg.ValidateP2PPayload && !f.validP2PPayload(payload) {
				f.stats.P2PFormatRejected++
				f.stats.Dropped++
				return Drop
			}
			f.stats.ZoomP2P++
			return KeepP2P
		}
	}
	f.stats.Dropped++
	return Drop
}

// validP2PPayload applies format validation to a P2P table hit: the
// Zoom media grammar always counts; under GenericRTC a standards RTP
// header does too.
func (f *Filter) validP2PPayload(payload []byte) bool {
	if ValidateP2P(payload) {
		return true
	}
	return f.cfg.GenericRTC && webrtc.Probe(payload)
}

func (f *Filter) registerSTUN(src, dst netip.Addr, srcPort, dstPort uint16, ts time.Time) {
	// Remember the campus-side endpoint: the non-3478 side of the
	// exchange that is not the Zoom server.
	var ep netip.AddrPort
	switch {
	case dstPort == stun.Port:
		ep = netip.AddrPortFrom(src, srcPort)
	case srcPort == stun.Port:
		ep = netip.AddrPortFrom(dst, dstPort)
	default:
		return
	}
	if f.campus.Len() > 0 && !f.campus.Contains(ep.Addr()) {
		// With campus knowledge, only campus endpoints are registered
		// (the P4 program writes "the campus peer's address").
		return
	}
	if _, exists := f.p2p[ep]; !exists {
		if len(f.p2p) >= f.cfg.MaxP2PEntries {
			f.evictExpired(ts)
			if len(f.p2p) >= f.cfg.MaxP2PEntries {
				return // table full, like a hash-table insertion failure on the switch
			}
		}
		f.stats.P2PInserted++
	}
	f.p2p[ep] = ts
}

func (f *Filter) lookupP2P(ep netip.AddrPort, ts time.Time) bool {
	seen, ok := f.p2p[ep]
	if !ok {
		return false
	}
	if ts.Sub(seen) > f.cfg.P2PTimeout {
		delete(f.p2p, ep)
		f.stats.P2PEvicted++
		return false
	}
	// Refresh: active media keeps the entry alive.
	f.p2p[ep] = ts
	return true
}

func (f *Filter) evictExpired(ts time.Time) {
	for ep, seen := range f.p2p {
		if ts.Sub(seen) > f.cfg.P2PTimeout {
			delete(f.p2p, ep)
			f.stats.P2PEvicted++
		}
	}
}

// P2PTableLen reports the current number of armed P2P endpoints.
func (f *Filter) P2PTableLen() int { return len(f.p2p) }

// ValidateP2P confirms a suspected P2P packet actually carries the Zoom
// media format (§4.1: false positives from port reuse "can easily be
// filtered out by inspecting the packet format").
func ValidateP2P(payload []byte) bool {
	_, err := zoom.ParsePacket(payload, zoom.ModeP2P)
	return err == nil
}

// Anonymizer replaces campus addresses with a one-way mapping, modeling
// the ONTAS-based anonymization stage of the capture program (§6.1).
// Two modes are available: keyed-hash (default — stable pseudorandom
// addresses, maximal hiding) and prefix-preserving (Crypto-PAn — subnet
// structure survives so operators can still aggregate by building).
// Non-campus (Zoom server) addresses pass through in both modes so
// server-side analysis still works.
type Anonymizer struct {
	key    []byte
	campus *PrefixSet
	cache  map[netip.Addr]netip.Addr
	prefix *PrefixPreservingAnonymizer
}

// NewAnonymizer builds a keyed-hash anonymizer with a secret key and
// the campus networks whose addresses must be hidden.
func NewAnonymizer(key []byte, campus []netip.Prefix) *Anonymizer {
	k := make([]byte, len(key))
	copy(k, key)
	return &Anonymizer{key: k, campus: NewPrefixSet(campus), cache: make(map[netip.Addr]netip.Addr)}
}

// NewPrefixAnonymizer builds a prefix-preserving (Crypto-PAn style)
// anonymizer for campus addresses.
func NewPrefixAnonymizer(key []byte, campus []netip.Prefix) *Anonymizer {
	return &Anonymizer{
		campus: NewPrefixSet(campus),
		prefix: NewPrefixPreservingAnonymizer(key),
	}
}

// Addr returns the anonymized form of a: campus addresses map one-way
// per the anonymizer's mode; other addresses are returned unchanged.
func (an *Anonymizer) Addr(a netip.Addr) netip.Addr {
	if !an.campus.Contains(a) {
		return a
	}
	if an.prefix != nil {
		return an.prefix.Addr(a)
	}
	if out, ok := an.cache[a]; ok {
		return out
	}
	mac := hmac.New(sha256.New, an.key)
	b := a.As16()
	mac.Write(b[:])
	sum := mac.Sum(nil)
	var out netip.Addr
	if a.Is4() {
		var v [4]byte
		v[0] = 10
		copy(v[1:], sum[:3])
		out = netip.AddrFrom4(v)
	} else {
		var v [16]byte
		v[0] = 0xfd
		copy(v[1:], sum[:15])
		out = netip.AddrFrom16(v)
	}
	an.cache[a] = out
	return out
}

// AnonymizeInPlace rewrites the IPv4 source and destination addresses of
// a raw Ethernet frame in place and fixes the header checksum. Frames
// without IPv4 pass through unchanged. Transport checksums are zeroed
// (the capture system does not re-derive them; analysis never verifies
// them on anonymized traces).
func (an *Anonymizer) AnonymizeInPlace(frame []byte) {
	const ethLen = 14
	if len(frame) < ethLen+20 || binary.BigEndian.Uint16(frame[12:14]) != 0x0800 {
		return
	}
	ip := frame[ethLen:]
	ihl := int(ip[0]&0x0f) * 4
	if ihl < 20 || len(ip) < ihl {
		return
	}
	src := netip.AddrFrom4([4]byte(ip[12:16]))
	dst := netip.AddrFrom4([4]byte(ip[16:20]))
	s4, d4 := an.Addr(src).As4(), an.Addr(dst).As4()
	copy(ip[12:16], s4[:])
	copy(ip[16:20], d4[:])
	// Recompute the IPv4 header checksum.
	ip[10], ip[11] = 0, 0
	var sum uint32
	for i := 0; i < ihl; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(ip[i : i+2]))
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	binary.BigEndian.PutUint16(ip[10:12], ^uint16(sum))
	// Zero the transport checksum.
	switch ip[9] {
	case 17:
		if len(ip) >= ihl+8 {
			ip[ihl+6], ip[ihl+7] = 0, 0
		}
	case 6:
		if len(ip) >= ihl+18 {
			ip[ihl+16], ip[ihl+17] = 0, 0
		}
	}
}
