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
//	for _, id := range a.StreamIDs() {
//		m, _ := a.MetricsFor(id)
//		fmt.Println(id.Key, m.FramesTotal, m.LossStats())
//	}
//	for _, meeting := range a.Meetings() {
//		fmt.Println(meeting.ID, meeting.Participants())
//	}
package zoomlens

import (
	"io"
	"net"
	"net/http"
	"net/netip"

	"zoomlens/internal/analysis"
	"zoomlens/internal/capture"
	"zoomlens/internal/core"
	"zoomlens/internal/entropy"
	"zoomlens/internal/flow"
	"zoomlens/internal/infra"
	"zoomlens/internal/media"
	"zoomlens/internal/meeting"
	"zoomlens/internal/metrics"
	"zoomlens/internal/netsim"
	"zoomlens/internal/obs"
	"zoomlens/internal/pcap"
	"zoomlens/internal/qos"
	"zoomlens/internal/rtp"
	"zoomlens/internal/sim"
	"zoomlens/internal/stun"
	"zoomlens/internal/tcprtt"
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
	// MeetingReport rolls stream metrics up to meetings and
	// participants, localizing degradation (§4.3's motivation).
	MeetingReport = core.MeetingReport
	// ParticipantReport is the per-participant quality roll-up.
	ParticipantReport = core.ParticipantReport
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

// Live observability (metrics endpoint, stage tracing, QoE snapshots).
type (
	// MetricsRegistry collects the pipeline's counters, gauges, and
	// histograms; wire one through Config.Obs and serve it with
	// ServeMetrics.
	MetricsRegistry = obs.Registry
	// MetricLabel is one name=value label on a metric handle.
	MetricLabel = obs.Label
	// MetricCounter is a monotonically increasing metric handle.
	MetricCounter = obs.Counter
	// MetricGauge is a settable instantaneous metric handle.
	MetricGauge = obs.Gauge
	// Tracer receives per-stage wall-clock timings (Config.Tracer).
	Tracer = obs.Tracer
	// StageStats is an in-memory Tracer that renders a timing report.
	StageStats = obs.StageStats
	// MultiTracer fans stage timings out to several tracers.
	MultiTracer = obs.MultiTracer
	// MeetingSnapshot is one meeting's rolling QoE state, emitted as one
	// JSON line per meeting per snapshot interval.
	MeetingSnapshot = core.MeetingSnapshot
	// SnapshotWriter emits JSON-line snapshots on a trace-time cadence.
	SnapshotWriter = core.SnapshotWriter
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewStageStats builds an in-memory stage-timing tracer.
func NewStageStats() *StageStats { return obs.NewStageStats() }

// NewRegistryTracer builds a Tracer that records stage timings as
// counters and histograms in the registry.
func NewRegistryTracer(reg *MetricsRegistry) Tracer { return obs.NewRegistryTracer(reg) }

// ServeMetrics starts an HTTP endpoint on addr exposing the registry in
// Prometheus text format at /metrics, plus expvar and net/http/pprof.
// It returns the server and the bound address (useful with port 0).
func ServeMetrics(addr string, reg *MetricsRegistry) (*http.Server, net.Addr, error) {
	return obs.Serve(addr, reg)
}

// StageTimer times one stage under tr (nil-safe): call the returned
// function when the stage completes.
func StageTimer(tr Tracer, stage string) func() { return obs.Stage(tr, stage) }

// Production hardening (bounded state, panic containment).
type (
	// Quarantine is the forensic ring buffer of frames whose processing
	// panicked; see Config.Quarantine.
	Quarantine = core.Quarantine
	// QuarantinedFrame is one captured offender in a Quarantine.
	QuarantinedFrame = core.QuarantinedFrame
	// FinishedStream is an archived, finalized stream (Compact / idle
	// eviction).
	FinishedStream = core.FinishedStream
)

// NewQuarantine builds a forensic frame ring holding up to capacity
// frames (a default capacity if capacity <= 0).
func NewQuarantine(capacity int) *Quarantine { return core.NewQuarantine(capacity) }

// Zoom wire format (§4.2).
type (
	// ZoomPacket is a fully parsed Zoom UDP payload.
	ZoomPacket = zoom.Packet
	// SFUEncap is the 8-byte Zoom SFU encapsulation.
	SFUEncap = zoom.SFUEncap
	// MediaEncap is the variable-length Zoom media encapsulation.
	MediaEncap = zoom.MediaEncap
	// MediaType is the media encapsulation type byte.
	MediaType = zoom.MediaType
	// Substream classifies (media type, RTP payload type) pairs.
	Substream = zoom.Substream
	// StreamKey identifies a media stream within a flow.
	StreamKey = zoom.StreamKey
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
	// Verdict is a filter decision.
	Verdict = capture.Verdict
	// Anonymizer hides campus addresses with a keyed one-way hash.
	Anonymizer = capture.Anonymizer
	// PipelineModel is the Tofino resource model behind Table 5.
	PipelineModel = capture.PipelineModel
)

// NewFilter builds the capture filter.
func NewFilter(cfg FilterConfig) *Filter { return capture.NewFilter(cfg) }

// NewAnonymizer builds a keyed address anonymizer.
func NewAnonymizer(key []byte, campus []netip.Prefix) *Anonymizer {
	return capture.NewAnonymizer(key, campus)
}

// Stream and meeting structure (§4.3, Figure 6).
type (
	// FlowTable tracks flows, streams, and substreams.
	FlowTable = flow.Table
	// StreamStats is per-stream accounting.
	StreamStats = flow.StreamStats
	// MediaStreamID identifies one observed stream.
	MediaStreamID = flow.MediaStreamID
	// Dedup detects stream copies (grouping step 1).
	Dedup = meeting.Dedup
	// Meeting is an inferred meeting (grouping step 2).
	Meeting = meeting.Meeting
	// UnifiedID identifies a logical stream across copies.
	UnifiedID = meeting.UnifiedID
)

// NewFlowTable returns an empty flow/stream table.
func NewFlowTable() *FlowTable { return flow.NewTable() }

// NewDedup returns a duplicate-stream detector.
func NewDedup() *Dedup { return meeting.NewDedup() }

// Metrics (§5).
type (
	// StreamMetrics computes every per-stream metric of Table 4.
	StreamMetrics = metrics.StreamMetrics
	// Series is a metric time series.
	Series = metrics.Series
	// Sample is one metric sample.
	Sample = metrics.Sample
	// CopyMatcher produces RTT samples from stream copies (§5.3).
	CopyMatcher = metrics.CopyMatcher
	// TCPRTTTracker measures control-connection RTTs (§5.3 method 2).
	TCPRTTTracker = tcprtt.Tracker
	// Frame is one reassembled media frame.
	Frame = metrics.Frame
	// StallDetector predicts playback stalls from frame delay vs
	// packetization time (§5.5).
	StallDetector = metrics.StallDetector
	// TalkTracker quantifies speaking time from the audio substream
	// split (§4.2.3).
	TalkTracker = metrics.TalkTracker
	// TalkStats summarizes a participant's speaking behaviour.
	TalkStats = metrics.TalkStats
	// ClockRateEstimate is the §5.2 clock-rate sweep result.
	ClockRateEstimate = metrics.ClockRateEstimate
	// FrameObservation is one (arrival, RTP timestamp) pair.
	FrameObservation = metrics.FrameObservation
)

// InferClockRate sweeps candidate RTP clock rates over frame
// observations — the §5.2 methodology that discovered Zoom's 90 kHz
// video clock.
func InferClockRate(frames []FrameObservation) (ClockRateEstimate, bool) {
	return metrics.InferClockRate(frames)
}

// GenerateLuaDissector emits the Wireshark plugin (Appendix C),
// generated from the implemented wire format.
func GenerateLuaDissector() string { return zoom.GenerateLuaDissector() }

// GenerateP4 emits the capture-filter P4 program (§6.1, Figure 13) for
// the given server prefixes.
func GenerateP4(zoomNets []netip.Prefix, p2pTableEntries int) string {
	return capture.GenerateP4(zoomNets, p2pTableEntries)
}

// NewStreamMetrics builds a per-stream metric engine.
func NewStreamMetrics(mt MediaType) *StreamMetrics { return metrics.NewStreamMetrics(mt) }

// Protocol codecs.
type (
	// RTPPacket is a decoded RTP packet.
	RTPPacket = rtp.Packet
	// RTCPCompound is a decoded RTCP compound packet.
	RTCPCompound = rtp.CompoundPacket
	// STUNMessage is a decoded STUN message.
	STUNMessage = stun.Message
	// PcapReader reads classic libpcap streams.
	PcapReader = pcap.Reader
	// PcapWriter writes classic libpcap streams.
	PcapWriter = pcap.Writer
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
	// SimMeeting is one simulated meeting.
	SimMeeting = sim.Meeting
	// MediaSet selects the media a participant sends.
	MediaSet = sim.MediaSet
	// Congestion is a scheduled link impairment episode.
	Congestion = netsim.Congestion
	// QoSRecorder is the SDK-like ground-truth statistics log.
	QoSRecorder = qos.Recorder
	// CampusConfig shapes a campus-scale workload.
	CampusConfig = trace.Config
	// MeetingPlan is one scheduled campus meeting.
	MeetingPlan = trace.MeetingPlan
	// VideoConfig parameterizes the video source model.
	VideoConfig = media.VideoConfig
)

// NewWorld builds a simulated campus world.
func NewWorld(opts WorldOptions) *World { return sim.NewWorld(opts) }

// DefaultWorldOptions is a healthy two-leg campus topology.
func DefaultWorldOptions() WorldOptions { return sim.DefaultOptions() }

// DefaultMediaSet is a camera+microphone participant.
func DefaultMediaSet() MediaSet { return sim.DefaultMediaSet() }

// DefaultCampusConfig is a laptop-scale 12-hour campus day.
func DefaultCampusConfig() CampusConfig { return trace.DefaultConfig() }

// CampusSchedule draws a meeting plan for a campus day.
func CampusSchedule(cfg CampusConfig) []MeetingPlan { return trace.Schedule(cfg) }

// Statistics toolkit.
type (
	// CDF is an empirical distribution.
	CDF = analysis.CDF
	// TextTable renders aligned plain-text tables.
	TextTable = analysis.Table
)

// NewCDF builds an empirical CDF.
func NewCDF(samples []float64) *CDF { return analysis.NewCDF(samples) }

// PlotCDFs renders labeled CDFs as an ASCII chart (the terminal
// rendering of the Figure 15 panels).
func PlotCDFs(series map[string]*CDF, xMax float64, width, height int) string {
	return analysis.PlotCDFs(series, xMax, width, height)
}

// Pearson computes the correlation coefficient of paired samples.
func Pearson(x, y []float64) float64 { return analysis.Pearson(x, y) }

// Infrastructure survey (Appendix B, Table 7).
type (
	// Inventory is the modeled Zoom server footprint.
	Inventory = infra.Inventory
	// SurveyResult is the Table 7 reproduction.
	SurveyResult = infra.SurveyResult
)

// BuildInventory constructs the synthetic Zoom footprint.
func BuildInventory(seed int64) *Inventory { return infra.Build(seed) }

// DefaultZoomNetworks returns the modeled Zoom server prefixes (the
// stand-in for Zoom's published list; the simulator's servers live in
// the first of these).
func DefaultZoomNetworks() []netip.Prefix {
	inv := infra.Build(1)
	out := make([]netip.Prefix, 0, len(inv.Networks))
	for _, n := range inv.Networks {
		out = append(out, n.Prefix)
	}
	return out
}
