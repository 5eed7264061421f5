// Package zoomlens is a passive measurement toolkit for Zoom traffic,
// implementing "Enabling Passive Measurement of Zoom Performance in
// Production Networks" (Michel et al., IMC 2022) as a reusable Go
// library.
//
// From packet captures alone — no cooperation from clients or servers —
// zoomlens can:
//
//   - detect Zoom traffic, including peer-to-peer meetings, via the
//     published server networks and STUN-based P2P tracking (§4.1);
//   - parse Zoom's proprietary SFU and media encapsulations and the RTP
//     and RTCP inside them (§4.2, Tables 1–3);
//   - group media streams into meetings without any meeting ID in the
//     packets (§4.3); and
//   - compute per-stream performance metrics: media bit rate, frame
//     rate (delivered and encoder-intended), frame size, latency, frame
//     jitter, loss/retransmission estimates, and frame delay (§5).
//
// The package also ships the substrate the paper's evaluation needs:
// pcap I/O, Ethernet/IP/UDP/TCP codecs, RTP/RTCP/STUN codecs, an
// entropy-based header analyzer for protocol reverse engineering, a
// software model of the paper's P4/Tofino capture pipeline, a Zoom
// meeting/campus traffic simulator with QoS ground truth, and an
// experiment harness that regenerates every table and figure of the
// paper (see bench_test.go and EXPERIMENTS.md).
//
// # Quick start
//
//	f, _ := os.Open("campus.pcap")
//	defer f.Close()
//	a := zoomlens.NewAnalyzer(zoomlens.Config{
//		ZoomNetworks: zoomlens.DefaultZoomNetworks(),
//	})
//	if err := a.ReadPCAP(f); err != nil { ... }
//	for _, s := range a.Streams() {
//		fmt.Println(s.ID.Key, s.Metrics.FramesTotal(), s.Metrics.LossStats())
//	}
//	for _, meeting := range a.Meetings() {
//		fmt.Println(meeting.ID, meeting.Participants())
//	}
package zoomlens

import (
	"io"
	"net/netip"

	"zoomlens/internal/analysis"
	"zoomlens/internal/capture"
	"zoomlens/internal/core"
	"zoomlens/internal/entropy"
	"zoomlens/internal/infra"
	"zoomlens/internal/metrics"
	"zoomlens/internal/netsim"
	"zoomlens/internal/obs"
	"zoomlens/internal/sim"
	"zoomlens/internal/trace"
	"zoomlens/internal/zoom"
)

// Core analysis pipeline (§4–§5).
type (
	// Engine is the common contract of the sequential and parallel
	// pipelines: feed borrowed packet buffers, finish, read the report.
	Engine = core.Engine
	// Analyzer is the end-to-end passive measurement pipeline.
	Analyzer = core.Analyzer
	// ParallelAnalyzer is the same pipeline with its shards on their own
	// goroutines: five-tuples hash to worker shards, a deterministic merge
	// at Finish yields results byte-identical to the sequential Analyzer.
	ParallelAnalyzer = core.ParallelAnalyzer
	// Config parameterizes an Analyzer.
	Config = core.Config
	// Summary is the Table 6 style capture roll-up.
	Summary = core.Summary
)

// NewAnalyzer builds the end-to-end pipeline.
func NewAnalyzer(cfg Config) *Analyzer { return core.NewAnalyzer(cfg) }

// NewParallelAnalyzer builds the sharded pipeline with the given worker
// count; workers <= 0 selects runtime.NumCPU(), workers == 1 is the
// sequential engine.
func NewParallelAnalyzer(cfg Config, workers int) *ParallelAnalyzer {
	return core.NewParallelAnalyzer(cfg, workers)
}

// RestoreAnalyzer rebuilds an engine from a checkpoint written by
// Engine.Checkpoint. The worker count comes from the checkpoint; cfg
// supplies the run configuration, which should match the original
// run's for byte-identical resumption.
func RestoreAnalyzer(r io.Reader, cfg Config) (Engine, error) {
	return core.RestoreAnalyzer(r, cfg)
}

// Live observability (metric handles, QoE snapshots).
type (
	// MetricCounter is a monotonically increasing metric handle.
	MetricCounter = obs.Counter
	// MeetingSnapshot is one meeting's rolling QoE state, emitted as one
	// JSON line per meeting per snapshot interval.
	MeetingSnapshot = core.MeetingSnapshot
)

// Zoom wire format (§4.2).
type (
	// ZoomPacket is a fully parsed Zoom UDP payload.
	ZoomPacket = zoom.Packet
	// MediaType is the media encapsulation type byte.
	MediaType = zoom.MediaType
	// Substream classifies (media type, RTP payload type) pairs.
	Substream = zoom.Substream
)

// Media encapsulation type values (Table 2).
const (
	TypeScreenShare = zoom.TypeScreenShare
	TypeAudio       = zoom.TypeAudio
	TypeVideo       = zoom.TypeVideo
	TypeRTCPSR      = zoom.TypeRTCPSR
	TypeRTCPSRSDES  = zoom.TypeRTCPSRSDES
)

// ParseZoomPacket decodes a Zoom UDP payload in either the server-based
// or P2P layout.
func ParseZoomPacket(payload []byte) (ZoomPacket, error) {
	return zoom.ParsePacket(payload, zoom.ModeAuto)
}

// Capture filtering (§4.1, §6.1).
type (
	// Filter classifies packets per the paper's P4 pipeline (Figure 13).
	Filter = capture.Filter
	// FilterConfig parameterizes the filter.
	FilterConfig = capture.Config
)

// NewFilter builds the capture filter.
func NewFilter(cfg FilterConfig) *Filter { return capture.NewFilter(cfg) }

// Metrics (§5).
type (
	// StreamMetrics computes every per-stream metric of Table 4.
	StreamMetrics = metrics.StreamMetrics
	// Sample is one metric sample.
	Sample = metrics.Sample
	// Frame is one reassembled media frame.
	Frame = metrics.Frame
)

// Entropy-based header analysis (§4.2.1, Figures 3–5).
type (
	// EntropyAnalysis classifies one byte-range value sequence.
	EntropyAnalysis = entropy.Analysis
	// FieldClass is random / identifier / counter / constant / mixed.
	FieldClass = entropy.FieldClass
)

// EntropySweep classifies 1/2/4-byte ranges at every offset of a flow's
// payloads.
func EntropySweep(payloads [][]byte, maxOffset int) []EntropyAnalysis {
	return entropy.Sweep(payloads, maxOffset)
}

// FindRTPHeaders scans payloads for the RTP header signature (a 2-byte
// counter, a 4-byte counter, and a 4-byte identifier back to back).
func FindRTPHeaders(payloads [][]byte, maxOffset int) []entropy.RTPSignature {
	return entropy.FindRTP(payloads, maxOffset)
}

// Simulation substrate (the paper's testbed stand-in).
type (
	// World is the discrete-event Zoom/campus simulator.
	World = sim.World
	// WorldOptions configures a World.
	WorldOptions = sim.Options
	// SimClient is one simulated participant endpoint.
	SimClient = sim.Client
	// MediaSet selects the media a participant sends.
	MediaSet = sim.MediaSet
	// Congestion is a scheduled link impairment episode.
	Congestion = netsim.Congestion
	// CampusConfig shapes a campus-scale workload.
	CampusConfig = trace.Config
)

// NewWorld builds a simulated campus world.
func NewWorld(opts WorldOptions) *World { return sim.NewWorld(opts) }

// DefaultWorldOptions is a healthy two-leg campus topology.
func DefaultWorldOptions() WorldOptions { return sim.DefaultOptions() }

// DefaultMediaSet is a camera+microphone participant.
func DefaultMediaSet() MediaSet { return sim.DefaultMediaSet() }

// DefaultCampusConfig is a laptop-scale 12-hour campus day.
func DefaultCampusConfig() CampusConfig { return trace.DefaultConfig() }

// Statistics toolkit.
type (
	// CDF is an empirical distribution.
	CDF = analysis.CDF
	// TextTable renders aligned plain-text tables.
	TextTable = analysis.Table
)

// NewCDF builds an empirical CDF.
func NewCDF(samples []float64) *CDF { return analysis.NewCDF(samples) }

// Pearson computes the correlation coefficient of paired samples.
func Pearson(x, y []float64) float64 { return analysis.Pearson(x, y) }

// Inventory is the modeled Zoom server footprint (Appendix B, Table 7).
type Inventory = infra.Inventory

// BuildInventory constructs the synthetic Zoom footprint.
func BuildInventory(seed int64) *Inventory { return infra.Build(seed) }

// DefaultZoomNetworks returns the modeled Zoom server prefixes (the
// stand-in for Zoom's published list; the simulator's servers live in
// the first of these). It computes the inventory's prefix plan alone:
// every tool calls it at start-up, and none of them needs the servers.
func DefaultZoomNetworks() []netip.Prefix {
	nets := infra.Networks()
	out := make([]netip.Prefix, 0, len(nets))
	for _, n := range nets {
		out = append(out, n.Prefix)
	}
	return out
}
