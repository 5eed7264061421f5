package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"time"

	"zoomlens/internal/capture"
	"zoomlens/internal/layers"
	"zoomlens/internal/rtcproto"
	"zoomlens/internal/statecodec"
)

// frontEnd is the capture stage: the one piece of the pipeline that must
// see every packet in global capture order, and therefore runs exactly
// once per deployment — in front of the inline shard of a sequential
// engine, in front of the shard queues of a parallel one, and inside the
// splitter process of a cluster (Router). It owns the stateful capture
// filter (the P2P table is armed by STUN on one flow and consulted by
// media on another), the flow-hash shard routing, the global capture
// sequence number, and the head counters; everything per-flow happens
// behind it in a shard.
type frontEnd struct {
	cfg    Config
	n      int // shards the flow hash spreads over
	filter *capture.Filter
	// parser and pkt serve the slow path only (frames rawScan declines).
	parser layers.Parser
	pkt    layers.Packet

	ClusterHead
	// seq is the global capture sequence number of the last frame
	// routed; it tags the media observations shards emit so cross-flow
	// reconciliation can restore capture order.
	seq uint64

	// o holds the engine's unlabeled live-metric handles and the head
	// counters' feeds (noObs without a registry, and in a Router).
	o *coreObs
	// panicHook, when set, runs in route after the frame is counted.
	// Tests inject deterministic front-end panics through it.
	panicHook func(at time.Time, frame []byte)
}

func newFrontEnd(cfg Config, n int) frontEnd {
	return frontEnd{
		cfg: cfg,
		n:   n,
		filter: capture.NewFilter(capture.Config{
			ZoomNetworks:   cfg.ZoomNetworks,
			CampusNetworks: cfg.CampusNetworks,
			GenericRTC:     rtcproto.HasNonZoom(cfg.protos()),
		}),
		o: noObs,
	}
}

// FilterStats returns the capture filter's decision counters.
func (fe *frontEnd) FilterStats() capture.FilterStats { return fe.filter.Stats() }

// route accounts one offered frame under sequence number seq and decides
// its fate: keep reports whether the frame goes on to per-flow analysis
// and shard names the shard that owns its flow. Undecodable and
// filter-dropped frames are counted here and go no further. route does
// not contain its own panics: its callers do (pipeline.ingestRun,
// Router.Route), and hand a frame that panicked to contain.
func (fe *frontEnd) route(at time.Time, frame []byte, seq uint64) (shard int, keep bool) {
	fe.seq = seq
	fe.Packets++
	fe.Bytes += uint64(len(frame))
	// A frame in capture order costs one compare. FirstTS is set only
	// with LastTS at or after it, so a frame past LastTS is never before
	// FirstTS; only the first frame and an out-of-order one look at it.
	if at.After(fe.LastTS) {
		fe.LastTS = at
		if fe.FirstTS.IsZero() {
			fe.FirstTS = at
		}
	} else if fe.FirstTS.IsZero() || at.Before(fe.FirstTS) {
		fe.FirstTS = at
	}
	if fe.panicHook != nil {
		fe.panicHook(at, frame)
	}
	var ri rawInfo
	var verdict capture.Verdict
	hashable := true
	if rawScan(frame, &ri) {
		verdict = fe.filter.ClassifyFlow(ri.src, ri.dst, !ri.isTCP, ri.srcPort, ri.dstPort, ri.payload, at)
	} else {
		// Anything the raw scan does not cover (IPv6, fragments, odd
		// header lengths) takes the full parse, which is also what decides
		// that a frame is undecodable.
		if err := fe.parser.Parse(frame, &fe.pkt); err != nil {
			fe.Undecodable++
			return 0, false
		}
		verdict = fe.filter.Classify(&fe.pkt, at)
		ri = rawInfo{
			src: fe.pkt.SrcAddr(), dst: fe.pkt.DstAddr(),
			srcPort: fe.pkt.SrcPort(), dstPort: fe.pkt.DstPort(),
			isTCP: fe.pkt.HasTCP,
		}
		hashable = fe.pkt.HasTCP || fe.pkt.HasUDP
	}
	if !verdict.Keep() && !fe.cfg.PreFiltered {
		fe.DroppedByFilter++
		return 0, false
	}
	if !hashable {
		// Kept but transport-less (a non-first fragment): there is no
		// flow to hash, and whichever shard gets it ignores it.
		return 0, true
	}
	return shardOf(fe.filter.ZoomNetworks(), fe.n, ri.isTCP, ri.src, ri.dst, ri.srcPort, ri.dstPort), true
}

// maintainEvery is the idle-eviction cadence in frames routed.
const maintainEvery = 4096

// evictDue is the engine's one eviction clock: under Config.FlowTTL, after
// every maintainEvery frames routed (Packets, panicked ones included) the
// engine evicts what is idle since the frame's time less the TTL, in every
// shard wherever it runs. It is a per-frame check, kept cheap to inline.
func (fe *frontEnd) evictDue() bool { return fe.cfg.FlowTTL > 0 && fe.Packets%maintainEvery == 0 }

// contain accounts a frame whose routing panicked: counted, quarantined,
// and dropped.
func (fe *frontEnd) contain(r any, at time.Time, frame []byte) {
	fe.PanicsRecovered++
	fe.cfg.quarantine(fe.o, r, at, frame)
}

// quarantine records one contained panic, already tallied: the live series
// at once and, when configured, the frame in the forensic ring.
func (cfg *Config) quarantine(o *coreObs, r any, at time.Time, frame []byte) {
	o.push()
	if cfg.Quarantine != nil {
		cfg.Quarantine.Add(at, frame, fmt.Sprintf("panic: %v", r))
	}
}

// code walks the head counters and the capture filter: small, so every
// record carries them whole.
func (fe *frontEnd) code(c *statecodec.Codec) {
	c.U64(&fe.seq)
	c.U64(&fe.Packets)
	c.U64(&fe.Bytes)
	c.U64(&fe.Undecodable)
	c.U64(&fe.DroppedByFilter)
	c.U64(&fe.PanicsRecovered)
	c.U64(&fe.ShedPackets)
	c.U64(&fe.ShedBytes)
	c.Bool(&fe.Truncated)
	c.Time(&fe.FirstTS)
	c.Time(&fe.LastTS)
	fe.filter.Code(c)
}

// rawInfo carries the routing-relevant features of a frame: enough for
// the capture filter and the shard hash, with the full decode left to
// the shard.
type rawInfo struct {
	src, dst         netip.Addr
	srcPort, dstPort uint16
	isTCP            bool
	payload          []byte // UDP payload (length-clamped); nil for TCP
}

// rawScan validates an Ethernet/IPv4/{UDP,TCP} frame with exactly the
// checks layers.Parser.Parse applies and extracts the flow features
// without building a Packet. It returns false for anything it does not
// fully cover — IPv6, fragments, other ethertypes or protocols,
// truncated headers — and the caller falls back to the full parse. It
// must never accept a frame the parser would reject, or derive different
// addresses, ports, or payload bounds (FuzzFrontEndVsParser holds it to
// that).
func rawScan(frame []byte, ri *rawInfo) bool {
	if len(frame) < 14+20 {
		return false
	}
	if binary.BigEndian.Uint16(frame[12:14]) != layers.EtherTypeIPv4 {
		return false
	}
	ip := frame[14:]
	if ip[0]>>4 != 4 {
		return false
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < 20 || len(ip) < ihl {
		return false
	}
	if totalLen := int(binary.BigEndian.Uint16(ip[2:4])); totalLen >= ihl && totalLen <= len(ip) {
		ip = ip[:totalLen] // strip Ethernet padding, as the parser does
	}
	if binary.BigEndian.Uint16(ip[6:8])&0x3fff != 0 {
		return false // any fragmentation: defer to the parser
	}
	rest := ip[ihl:]
	switch ip[9] {
	case layers.ProtoUDP:
		if len(rest) < 8 {
			return false
		}
		ri.srcPort = binary.BigEndian.Uint16(rest[0:2])
		ri.dstPort = binary.BigEndian.Uint16(rest[2:4])
		payload := rest[8:]
		if ulen := int(binary.BigEndian.Uint16(rest[4:6])); ulen >= 8 && ulen-8 <= len(payload) {
			payload = payload[:ulen-8]
		}
		ri.payload = payload
		ri.isTCP = false
	case layers.ProtoTCP:
		if len(rest) < 20 {
			return false
		}
		if hl := int(rest[12]>>4) * 4; hl < 20 || len(rest) < hl {
			return false
		}
		ri.srcPort = binary.BigEndian.Uint16(rest[0:2])
		ri.dstPort = binary.BigEndian.Uint16(rest[2:4])
		ri.payload = nil
		ri.isTCP = true
	default:
		return false
	}
	ri.src = netip.AddrFrom4([4]byte(ip[12:16]))
	ri.dst = netip.AddrFrom4([4]byte(ip[16:20]))
	return true
}

// shardOf hashes flow features to one of n shards: over the directed
// five-tuple for UDP, so every packet of a flow — and of any media stream
// on it — lands on one shard in order; over the client endpoint for TCP,
// the key the RTT trackers use, so both directions of every connection of
// one tracker share a shard (zoom tells which end is the client, as
// shard.observeTCP does). The hash reads 8-byte words — the addresses
// (see hashAddr), then ports and protocol packed into one — and ends in
// a full-avalanche finalizer; the shard is the high word of hash × n, a
// multiply where h % n would be a 64-bit divide.
func shardOf(zoom *capture.PrefixSet, n int, isTCP bool, src, dst netip.Addr, srcPort, dstPort uint16) int {
	if n == 1 {
		return 0
	}
	var h uint64
	if isTCP {
		client, cport := dst, dstPort
		if zoom.Contains(dst) && !zoom.Contains(src) {
			client, cport = src, srcPort
		}
		h = hashAddr(h, client)
		h = hashWord(h, uint64(cport)<<8|uint64(layers.ProtoTCP))
	} else {
		h = hashAddr(h, src)
		h = hashAddr(h, dst)
		h = hashWord(h, uint64(srcPort)<<24|uint64(dstPort)<<8|uint64(layers.ProtoUDP))
	}
	hi, _ := bits.Mul64(mix64(h), uint64(n))
	return int(hi)
}

// hashAddr folds an address into h: an IPv4 address as one word, any
// other as the two halves of its 16-byte form. (The 16-byte copy is the
// slow part — two 8-byte stores read back as one 16-byte load defeat
// store forwarding — so the common case skips it.)
func hashAddr(h uint64, a netip.Addr) uint64 {
	if a.Is4() {
		b := a.As4()
		return hashWord(h, uint64(binary.BigEndian.Uint32(b[:])))
	}
	b := a.As16()
	h = hashWord(h, binary.BigEndian.Uint64(b[:8]))
	return hashWord(h, binary.BigEndian.Uint64(b[8:]))
}

// hashWord folds one word into h: one multiply, and a rotate that brings
// the product's well-mixed high bits down to where the next word lands.
func hashWord(h, w uint64) uint64 {
	return bits.RotateLeft64((h^w)*0x9e3779b97f4a7c15, 31)
}

// mix64 is splitmix64's finalizer: every output bit depends on every
// input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
