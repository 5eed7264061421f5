// Package tcprtt measures round-trip times of TCP connections passively
// by matching the sequence numbers of outgoing data segments with the
// acknowledgment numbers of incoming segments, the technique the paper
// uses on Zoom's TLS control connection as a proxy for media latency
// (§5.3 method 2, Figure 11).
//
// A monitor between client and server sees both directions. For a
// segment travelling client→server, the time until the server's ACK
// passes the monitor measures the monitor↔server RTT; for a
// server→client segment, the matching client ACK measures the
// monitor↔client RTT. The difference localizes congestion upstream or
// downstream of the vantage point.
//
// Karn's rule is applied: segments whose sequence range was already
// outstanding (retransmissions) are not used for samples.
package tcprtt

import (
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/statecodec"
)

// Side labels which leg of the path a sample measured, relative to the
// monitor.
type Side int

// Sample sides.
const (
	// ToServer samples measure monitor → server → monitor.
	ToServer Side = iota
	// ToClient samples measure monitor → client → monitor.
	ToClient
)

func (s Side) String() string {
	if s == ToServer {
		return "to-server"
	}
	return "to-client"
}

// Sample is one RTT measurement.
type Sample struct {
	Time time.Time
	RTT  time.Duration
	Side Side
}

// maxOutstanding bounds the per-direction table of unacked segments.
const maxOutstanding = 4096

// Tracker measures one TCP connection. Feed every packet of the
// connection (both directions) to Observe in capture order. The zero
// value is an empty tracker.
type Tracker struct {
	// Samples accumulates measurements in arrival order.
	Samples statecodec.Log[Sample]

	clientToServer dirState // data sent by client, acked by server
	serverToClient dirState

	// lastSeen is the time of the latest packet (what idle eviction
	// reads).
	lastSeen time.Time

	// Mark is the tracker's entry in the change log of whoever keys it.
	Mark statecodec.Mark
}

type dirState struct {
	// outstanding maps an expected ack number (seq+len) to send time.
	outstanding map[uint32]time.Time
	// retx marks expected-ack values seen more than once (Karn).
	retx map[uint32]bool
	// highestSeen tracks the highest end-of-segment for retransmission
	// detection.
	highestEnd uint32
	started    bool
}

func (d *dirState) init() {
	if d.outstanding == nil {
		d.outstanding = make(map[uint32]time.Time)
		d.retx = make(map[uint32]bool)
	}
}

// NewTracker returns an empty tracker for one connection.
func NewTracker() *Tracker { return new(Tracker) }

// LastSeen returns the time of the latest packet observed.
func (t *Tracker) LastSeen() time.Time { return t.lastSeen }

// Observe ingests one TCP packet. fromClient reports the packet's
// direction (true: client→server). The TCP header and payload length come
// from the decoded packet.
func (t *Tracker) Observe(at time.Time, fromClient bool, tcp *layers.TCP, payloadLen int) {
	t.lastSeen = at
	var sendDir, ackDir *dirState
	var side Side
	if fromClient {
		sendDir, ackDir = &t.clientToServer, &t.serverToClient
		side = ToClient // the ACK we may carry answers server data; see below
	} else {
		sendDir, ackDir = &t.serverToClient, &t.clientToServer
		side = ToServer
	}
	sendDir.init()
	ackDir.init()

	// Record outgoing data (SYN and FIN each consume one sequence number
	// and elicit an ACK too).
	seqLen := uint32(payloadLen)
	if tcp.Flags.Has(layers.TCPSyn) || tcp.Flags.Has(layers.TCPFin) {
		seqLen++
	}
	if seqLen > 0 {
		expectedAck := tcp.Seq + seqLen
		if _, dup := sendDir.outstanding[expectedAck]; dup || (sendDir.started && seq32LE(expectedAck, sendDir.highestEnd)) {
			// Retransmission or old data: poison this ack value (Karn).
			sendDir.retx[expectedAck] = true
			sendDir.outstanding[expectedAck] = at
		} else {
			sendDir.outstanding[expectedAck] = at
			if !sendDir.started || seq32LE(sendDir.highestEnd, expectedAck) {
				sendDir.highestEnd = expectedAck
				sendDir.started = true
			}
		}
		if len(sendDir.outstanding) > maxOutstanding {
			sendDir.evictBefore(at.Add(-10 * time.Second))
		}
	}

	// Match this packet's ACK against the opposite direction's
	// outstanding data. The sample side: an ACK travelling
	// client→server answers data the monitor saw going server→client
	// earlier; the elapsed time is monitor→client→monitor (ToClient).
	if tcp.Flags.Has(layers.TCPAck) {
		if sent, ok := ackDir.outstanding[tcp.Ack]; ok {
			if !ackDir.retx[tcp.Ack] {
				rtt := at.Sub(sent)
				if rtt >= 0 {
					t.Samples.Append(Sample{Time: at, RTT: rtt, Side: side})
				}
			}
			delete(ackDir.outstanding, tcp.Ack)
			delete(ackDir.retx, tcp.Ack)
			// A cumulative ACK also covers all earlier outstanding
			// segments; drop them without sampling (their exact ack time
			// is unknown).
			for exp := range ackDir.outstanding {
				if seq32LE(exp, tcp.Ack) {
					delete(ackDir.outstanding, exp)
					delete(ackDir.retx, exp)
				}
			}
		}
	}
}

func (d *dirState) evictBefore(cut time.Time) {
	for k, at := range d.outstanding {
		if at.Before(cut) {
			delete(d.outstanding, k)
			delete(d.retx, k)
		}
	}
}

// seq32LE reports a ≤ b in 32-bit serial arithmetic.
func seq32LE(a, b uint32) bool {
	return a == b || int32(b-a) > 0
}

// SplitStats summarizes RTT per side: the decomposition the paper uses to
// place congestion inside or outside the campus.
type SplitStats struct {
	ToServerSamples int
	ToClientSamples int
	ToServerMean    time.Duration
	ToClientMean    time.Duration
}

// Split computes per-side means.
func (t *Tracker) Split() SplitStats {
	var s SplitStats
	var sumS, sumC time.Duration
	for i := range t.Samples.Len() {
		sm := t.Samples.At(i)
		if sm.Side == ToServer {
			s.ToServerSamples++
			sumS += sm.RTT
		} else {
			s.ToClientSamples++
			sumC += sm.RTT
		}
	}
	if s.ToServerSamples > 0 {
		s.ToServerMean = sumS / time.Duration(s.ToServerSamples)
	}
	if s.ToClientSamples > 0 {
		s.ToClientMean = sumC / time.Duration(s.ToClientSamples)
	}
	return s
}
