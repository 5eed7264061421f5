package metrics

import (
	"time"
)

// This file implements the retransmission heuristic sketched in §5.5 and
// §8: "If the delivery of a frame (normally consisting of packets sent
// back-to-back) takes longer than the connection's RTT, at least one
// retransmission likely happened within this frame" — and the stronger
// §5.5 signal that a retransmitted packet arrives elevated by the
// ~100 ms NACK timeout plus the RTT.

// RetxFrameEstimate summarizes the frame-delay-based retransmission
// analysis of one stream.
type RetxFrameEstimate struct {
	// FramesAnalyzed is the number of frames with a delay sample.
	FramesAnalyzed int
	// SuspectedRetxFrames is the count of frames whose delay exceeded
	// the RTT (at least one packet likely retransmitted, §8).
	SuspectedRetxFrames int
	// StrongRetxFrames is the count of frames whose delay also exceeded
	// the retransmission timeout + RTT (the §5.5 signature).
	StrongRetxFrames int
	// SuspectedRate is SuspectedRetxFrames / FramesAnalyzed.
	SuspectedRate float64
}

// RetxTimeout is the retransmission trigger the paper observed ("a
// timeout that appears to be 100ms").
const RetxTimeout = 100 * time.Millisecond

// EstimateRetransmissions applies the heuristic to the stream's frame
// delays given the path RTT (e.g. from the stream-copy matcher or the
// TCP proxy). Only multi-packet frames carry signal — single-packet
// frames have zero delay by construction — so streams of single-packet
// frames yield FramesAnalyzed == 0.
func (sm *StreamMetrics) EstimateRetransmissions(rtt time.Duration) RetxFrameEstimate {
	var est RetxFrameEstimate
	if rtt <= 0 {
		return est
	}
	rttMS := float64(rtt) / float64(time.Millisecond)
	strongMS := rttMS + float64(RetxTimeout)/float64(time.Millisecond)
	for i := range sm.frames.Len() {
		// Skip single-packet frames: their delay is 0 and analyzing them
		// would dilute the rate.
		ms := float64(sm.frames.At(i).Delay) / float64(time.Millisecond)
		if ms == 0 {
			continue
		}
		est.FramesAnalyzed++
		if ms > rttMS {
			est.SuspectedRetxFrames++
		}
		if ms > strongMS {
			est.StrongRetxFrames++
		}
	}
	if est.FramesAnalyzed > 0 {
		est.SuspectedRate = float64(est.SuspectedRetxFrames) / float64(est.FramesAnalyzed)
	}
	return est
}
