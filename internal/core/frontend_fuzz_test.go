package core

import (
	"bytes"
	"io"
	"net/netip"
	"testing"
	"time"

	"zoomlens/internal/capture"
	"zoomlens/internal/faultpcap"
	"zoomlens/internal/layers"
	"zoomlens/internal/pcap"
	"zoomlens/internal/rtcproto"
	"zoomlens/internal/stun"
)

// FuzzFrontEndVsParser holds the front end's fast path to its contract:
// for arbitrary frame bytes, route — raw header scan plus ClassifyFlow,
// full parse only as fallback — must decide exactly what the reference
// path decides, layers.Parser.Parse then Filter.Classify on a twin
// filter: the same undecodable/drop/keep verdict, the same shard, the
// same filter statistics. And whenever rawScan accepts a frame, the
// parser must accept it too and derive the same addresses, ports and
// UDP payload bounds. Every engine tier depends on this, the sequential
// one included.
func FuzzFrontEndVsParser(f *testing.F) {
	zoomNet := netip.MustParsePrefix("203.0.113.0/24")
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{zoomNet},
		CampusNetworks: []netip.Prefix{netip.MustParsePrefix("10.8.0.0/16")},
	}
	client := netip.MustParseAddrPort("10.8.0.10:50001")
	peer := netip.MustParseAddrPort("198.51.100.9:40000")
	server := netip.MustParseAddrPort("203.0.113.7:8801")
	stunSrv := netip.MustParseAddrPort("203.0.113.9:3478")
	at := time.Unix(1700000000, 0)
	// arm is fed to both filters before the frame under test, so the
	// stateful P2P stage has an armed endpoint to hit.
	req := stun.NewBindingRequest(stun.TransactionID{1})
	arm := layers.EthernetIPv4UDP(client, stunSrv, 64, req.Marshal())

	udp := layers.EthernetIPv4UDP(client, server, 64, []byte{5, 0, 1, 2, 3, 4, 5, 6})
	tcp := new(layers.Builder).BuildTCP(client, netip.AddrPortFrom(server.Addr(), 443), 64, 100, 0, layers.TCPSyn, 1024, []byte("hello"))
	p2p := layers.EthernetIPv4UDP(client, peer, 64, []byte{0x90, 0x60, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2})
	seeds := [][]byte{
		udp, tcp, p2p, arm,
		layers.EthernetIPv4UDP(peer, netip.MustParseAddrPort("192.0.2.1:53"), 64, []byte("dropped")),
		layers.EthernetIPv6UDP(netip.MustParseAddrPort("[2001:db8::1]:4000"), netip.MustParseAddrPort("[2001:db8::2]:8801"), 64, []byte("p6")),
		append(bytes.Clone(udp), 0, 0, 0, 0, 0, 0), // Ethernet padding past TotalLen
		udp[:len(udp)-3], // UDP length past the frame
		tcp[:14+20+12],   // truncated TCP header
		{}, make([]byte, 14),
	}
	mutate := func(frame []byte, off int, v byte) []byte {
		b := bytes.Clone(frame)
		b[off] = v
		return b
	}
	seeds = append(seeds,
		mutate(udp, 14, 0x44),       // IHL below the minimum
		mutate(udp, 14, 0x4f),       // IHL past the frame's options
		mutate(udp, 14+6, 0x20),     // first fragment (MF set)
		mutate(udp, 14+7, 0x10),     // non-first fragment
		mutate(tcp, 14+20+12, 0x40), // TCP data offset below the minimum
		mutate(tcp, 14+20+12, 0xf0), // TCP data offset past the segment
		mutate(udp, 14+9, 1),        // ICMP
	)
	// faultpcap's record-level mutations over the well-formed frames.
	for _, fault := range []faultpcap.Fault{faultpcap.BitFlip, faultpcap.Duplicate} {
		src := [][]byte{udp, tcp, p2p, arm}
		i := 0
		fr := faultpcap.NewReader(func() (pcap.Record, error) {
			if i == 2*len(src) {
				return pcap.Record{}, io.EOF
			}
			i++
			return pcap.Record{Timestamp: at, Data: bytes.Clone(src[i%len(src)])}, nil
		}, faultpcap.Options{Fault: fault, Seed: 7, Rate: 1})
		for rec, err := fr.Next(); err == nil; rec, err = fr.Next() {
			seeds = append(seeds, rec.Data)
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}

	const shards = 7
	fcfg := capture.Config{ZoomNetworks: cfg.ZoomNetworks, CampusNetworks: cfg.CampusNetworks, GenericRTC: rtcproto.HasNonZoom(cfg.protos())}
	f.Fuzz(func(t *testing.T, frame []byte) {
		fe := newFrontEnd(cfg, shards)
		ref := capture.NewFilter(fcfg)
		var parser layers.Parser
		var pkt layers.Packet
		if _, keep := fe.route(at, arm, 1); !keep {
			t.Fatal("arming STUN exchange was not kept")
		}
		if err := parser.Parse(arm, &pkt); err != nil || !ref.Classify(&pkt, at).Keep() {
			t.Fatal("reference path rejected the arming STUN exchange")
		}

		perr := parser.Parse(frame, &pkt)
		var ri rawInfo
		if rawScan(frame, &ri) {
			if perr != nil {
				t.Fatalf("rawScan accepted a frame the parser rejects: %v", perr)
			}
			if ri.src != pkt.SrcAddr() || ri.dst != pkt.DstAddr() || ri.srcPort != pkt.SrcPort() || ri.dstPort != pkt.DstPort() {
				t.Fatalf("rawScan %v:%d->%v:%d, parser %v:%d->%v:%d", ri.src, ri.srcPort, ri.dst, ri.dstPort,
					pkt.SrcAddr(), pkt.SrcPort(), pkt.DstAddr(), pkt.DstPort())
			}
			if ri.isTCP != pkt.HasTCP || ri.isTCP == pkt.HasUDP {
				t.Fatalf("rawScan isTCP=%v, parser HasTCP=%v HasUDP=%v", ri.isTCP, pkt.HasTCP, pkt.HasUDP)
			}
			// Both payloads are reslices of frame, so equal length and
			// capacity mean equal bounds.
			if pkt.HasUDP && (len(ri.payload) != len(pkt.Payload) || cap(ri.payload) != cap(pkt.Payload)) {
				t.Fatalf("UDP payload bounds: rawScan len %d cap %d, parser len %d cap %d",
					len(ri.payload), cap(ri.payload), len(pkt.Payload), cap(pkt.Payload))
			}
		}

		shard, keep := fe.route(at.Add(time.Millisecond), frame, 2)
		wantShard, wantKeep, wantUndecodable := 0, false, uint64(0)
		switch {
		case perr != nil:
			wantUndecodable = 1
		case ref.Classify(&pkt, at.Add(time.Millisecond)).Keep():
			wantKeep = true
			if pkt.HasTCP || pkt.HasUDP {
				wantShard = shardFor(&cfg, shards, pkt.HasTCP, pkt.SrcAddr(), pkt.DstAddr(), pkt.SrcPort(), pkt.DstPort())
			}
		}
		if keep != wantKeep || shard != wantShard || fe.Undecodable != wantUndecodable {
			t.Fatalf("front end (shard %d, keep %v, undecodable %d), reference (shard %d, keep %v, undecodable %d)",
				shard, keep, fe.Undecodable, wantShard, wantKeep, wantUndecodable)
		}
		if got, want := fe.FilterStats(), ref.Stats(); got != want {
			t.Fatalf("filter stats diverge: front end %+v, reference %+v", got, want)
		}
		if fe.PanicsRecovered != 0 {
			t.Fatalf("front end contained %d panic(s)", fe.PanicsRecovered)
		}
	})
}
