// Validation reproduces the paper's §5 controlled experiment (Figure
// 10): a two-party call with two injected cross-traffic episodes,
// analyzed passively and compared against the receiving client's own
// QoS statistics — frame rate, latency, and jitter.
//
// Run with:
//
//	go run ./examples/validation
package main

import (
	"fmt"
	"time"

	"zoomlens"
)

func main() {
	const seconds = 300 // a 5-minute call, like the paper's runs
	fmt.Printf("running a %ds two-party call with two congestion episodes...\n\n", seconds)
	v := zoomlens.RunValidation(seconds, 1)

	// Figure 10a: frame rate, estimate vs ground truth, printed every
	// ten seconds with congestion windows marked.
	fmt.Println("Figure 10a — frame rate (fps): passive estimate vs Zoom QoS data")
	fmt.Println("  t[s]   estimate   zoom-qos")
	qosFPS := map[int64]float64{}
	for _, s := range v.QoSFPS {
		qosFPS[s.Time().Unix()] = s.Value
	}
	inCongestion := func(t time.Time) string {
		for _, w := range v.CongestionWindows {
			if t.After(w.Start) && t.Before(w.End) {
				return "  << cross-traffic"
			}
		}
		return ""
	}
	var start time.Time
	if len(v.EstimatedFPS) > 0 {
		start = v.EstimatedFPS[0].Time()
	}
	var mae = v.FPSMae
	for i, s := range v.EstimatedFPS {
		if i%10 != 0 {
			continue
		}
		q, ok := qosFPS[s.Time().Unix()]
		if !ok {
			continue
		}
		fmt.Printf("  %4d   %8.1f   %8.1f%s\n", int(s.Time().Sub(start).Seconds()), s.Value, q, inCongestion(s.Time()))
	}
	fmt.Printf("  mean absolute error: %.2f fps\n\n", mae)

	// Figure 10b: latency. The passive estimate produces a sample per
	// matched packet pair; Zoom refreshes only every five seconds.
	fmt.Println("Figure 10b — latency")
	var estSum float64
	for _, s := range v.EstimatedRTTMS {
		estSum += s.Value
	}
	var qosSum float64
	for _, s := range v.QoSLatencyMS {
		qosSum += s.Value
	}
	fmt.Printf("  estimate: %6d samples, mean %5.1f ms   (RTP copy matching at the monitor)\n",
		len(v.EstimatedRTTMS), estSum/float64(len(v.EstimatedRTTMS)))
	fmt.Printf("  zoom qos: %6d samples, mean %5.1f ms   (5-second refresh)\n\n",
		len(v.QoSLatencyMS), qosSum/float64(len(v.QoSLatencyMS)))

	// Figure 10c: jitter. The paper's surprise: Zoom's own jitter metric
	// never responds to congestion; the RFC 3550 frame-level estimate
	// does.
	maxEst, maxQoS := 0.0, 0.0
	for _, s := range v.EstimatedJitterMS {
		if s.Value > maxEst {
			maxEst = s.Value
		}
	}
	for _, s := range v.QoSJitterMS {
		if s.Value > maxQoS {
			maxQoS = s.Value
		}
	}
	fmt.Println("Figure 10c — frame-level jitter")
	fmt.Printf("  estimate max: %5.1f ms  (responds during both congestion episodes)\n", maxEst)
	fmt.Printf("  zoom qos max: %5.2f ms  (stays flat — the mismatch the paper reports)\n", maxQoS)
}
