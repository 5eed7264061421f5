package engine

// The live-observability surface every zoomlens command-line tool
// shares: the -metrics-addr endpoint (Prometheus text format, expvar,
// pprof), the -trace stage-timing report, and — for the analysis tools —
// -snapshot-interval / -snapshot-out periodic QoE snapshots.

import (
	"flag"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"zoomlens/internal/obs"
)

// ObsFlags holds the shared observability flag values.
type ObsFlags struct {
	MetricsAddr      string
	Trace            bool
	SnapshotInterval time.Duration
	SnapshotOut      string
}

// RegisterMetrics installs the endpoint and tracing flags: the subset
// every tool supports. Register adds the QoE snapshot pair for the
// analysis tools (the snapshots come from an Analyzer).
func RegisterMetrics(fs *flag.FlagSet) *ObsFlags {
	f := &ObsFlags{}
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "",
		"serve live metrics on this address: Prometheus text at /metrics, expvar, pprof (empty = disabled; use 127.0.0.1:0 for an ephemeral port)")
	fs.BoolVar(&f.Trace, "trace", false,
		"print a per-stage wall-clock timing report to stderr at exit")
	return f
}

// ObsSetup is one run's live observability state.
type ObsSetup struct {
	// Registry is non-nil when -metrics-addr is set; hand it to
	// core.Config.Obs.
	Registry *obs.Registry
	// Tracer is non-nil when -trace and/or -metrics-addr is set; hand it
	// to core.Config.Tracer and use Stage for CLI-level stages.
	Tracer obs.Tracer

	stats *obs.StageStats
	srv   *http.Server
	snapF *os.File
	// snapW is the destination -snapshot-out selected (stderr by
	// default). The periodic snapshots and the driver's live QoE
	// prediction records share it, so one flag steers all trace-time
	// JSON lines.
	snapW io.Writer
}

// Apply builds the run's observability from the parsed flags. The
// endpoint address is logged so callers (and tests, with port 0) can
// find it. Call Close before exiting.
func (f *ObsFlags) Apply() (*ObsSetup, error) {
	s := &ObsSetup{snapW: os.Stderr}
	if f.MetricsAddr != "" {
		s.Registry = obs.NewRegistry()
		srv, addr, err := obs.Serve(f.MetricsAddr, s.Registry)
		if err != nil {
			return nil, err
		}
		s.srv = srv
		log.Printf("metrics: listening on http://%s/metrics", addr)
	}
	var trs obs.MultiTracer
	if f.Trace {
		s.stats = obs.NewStageStats()
		trs = append(trs, s.stats)
	}
	if s.Registry != nil {
		trs = append(trs, obs.NewRegistryTracer(s.Registry))
	}
	if len(trs) > 0 {
		s.Tracer = trs
	}
	if f.SnapshotOut != "" && f.SnapshotOut != "-" {
		sf, err := os.Create(f.SnapshotOut)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.snapF = sf
		s.snapW = sf
	}
	return s, nil
}

// Stage times one CLI stage under the configured tracer (no-op when
// tracing is off). Use as: defer setup.Stage("ingest")().
func (s *ObsSetup) Stage(name string) func() { return obs.Stage(s.Tracer, name) }

// Close shuts the endpoint down, closes the snapshot file, and prints
// the stage report unless EmitStatus already has.
func (s *ObsSetup) Close() {
	if s == nil {
		return
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.snapF != nil {
		s.snapF.Close()
	}
	s.printStages()
}

// printStages prints the -trace stage report on stderr, once.
func (s *ObsSetup) printStages() {
	if s.stats != nil {
		os.Stderr.WriteString(s.stats.Report())
		s.stats = nil
	}
}
