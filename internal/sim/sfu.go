package sim

import (
	"net/netip"
	"time"
)

// sfu models a Zoom multimedia router: it replicates every media packet
// to all other meeting participants without rewriting RTP headers or
// timestamps (§4.3.1), re-wrapping only the SFU encapsulation (new
// per-destination sequence numbers, direction byte 0x04).
type sfu struct {
	w *World
	// sfuSeq numbers outgoing SFU encapsulations per destination client.
	sfuSeq map[*Client]uint16
}

func newSFU(w *World) *sfu {
	return &sfu{w: w, sfuSeq: make(map[*Client]uint16)}
}

// receive handles one uplink packet from a participant.
func (s *sfu) receive(at time.Time, from *Client, pkt *wirePacket) {
	m := from.meeting
	if m == nil || m.mode != modeSFU {
		return
	}
	if pkt.h.Kind == 0 {
		return // opaque control traffic terminates at the server
	}
	// Zoom's SFU forwards only a few concurrent audio streams (active
	// speakers); everyone's video/screen is replicated.
	if flowMediaType(pkt) == KindAudio && !m.audioForwarded(from) {
		return
	}
	for _, p := range m.participants {
		if p == from || !p.active {
			continue
		}
		if s.w.Opts.SkipExternalDelivery && !p.Campus {
			continue
		}
		s.forward(p, pkt)
	}
}

// forward re-wraps and sends one packet to a downlink participant.
func (s *sfu) forward(to *Client, pkt *wirePacket) {
	seg := segment{src: s.w.SFUAddrPort(), ttl: 57, payload: pkt.payload}
	if to.meeting.app == AppWebRTC {
		// The standards SFU relays the RTP packet unchanged (header
		// rewriting is out of model) from its media port.
		seg.src = s.w.WebRTCAddrPort()
	} else {
		s.sfuSeq[to]++
		// Rebuild the SFU encapsulation with the from-SFU direction while
		// leaving the inner media encapsulation and RTP bytes untouched:
		// Zoom's SFU does not translate timestamps or sequence numbers.
		seg.fromSFU, seg.sfuSeq = true, s.sfuSeq[to]
		seg.payload = pkt.payload[SFUEncapsulation.Len:]
	}
	seg.dst = netip.AddrPortFrom(to.Addr, to.portFor(flowMediaType(pkt)))
	p := &to.fromSFU
	p.deliver(seg,
		func(arrive time.Time) { to.receiveMedia(arrive, pkt) },
		func() {
			// Downlink loss: the SFU retransmits to this client with the
			// same RTP sequence number after the NACK timeout.
			s.w.Eng.After(retxTimeout+p.rttHint, func() {
				if to.active && to.meeting != nil && to.meeting.mode == modeSFU {
					s.retransmit(to, pkt, seg, 1)
				}
			})
		},
	)
}

// retransmit re-sends seg, framing the same bytes again.
func (s *sfu) retransmit(to *Client, pkt *wirePacket, seg segment, retries int) {
	p := &to.fromSFU
	p.deliver(seg,
		func(arrive time.Time) { to.receiveMedia(arrive, pkt) },
		func() {
			if retries > 0 {
				s.w.Eng.After(retxTimeout+p.rttHint, func() {
					if to.active {
						s.retransmit(to, pkt, seg, retries-1)
					}
				})
			}
		},
	)
}
