package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"zoomlens/internal/capture"
	"zoomlens/internal/core"
	"zoomlens/internal/pcap"
)

// Splitter fans one capture out to N worker streams: each frame goes
// through the engine's own front end (core.Router) and the kept ones are
// written whole to the owning worker's pcapng stream, stamped with the
// global capture sequence number as an epb_packetid option. A worker
// process is just the ordinary engine driver reading that stream.
type Splitter struct {
	router *core.Router
	outs   []*pcap.NGWriter
	// kept counts frames forwarded per worker (the manifest's sanity
	// cross-check against each worker's own packet count).
	kept []uint64
	// timeRange counts kept frames no worker stream could carry: their
	// timestamp is outside pcapng's range (pcap.ErrTimeRange).
	timeRange uint64
}

// NewSplitter builds a splitter over n worker streams; attach each
// stream with Attach before feeding packets.
func NewSplitter(cfg core.Config, n int) *Splitter {
	if n < 1 {
		n = 1
	}
	return &Splitter{
		router: core.NewRouter(cfg, n),
		outs:   make([]*pcap.NGWriter, n),
		kept:   make([]uint64, n),
	}
}

// Workers returns the fan-out width.
func (s *Splitter) Workers() int { return len(s.outs) }

// Attach binds worker i's output stream, writing the pcapng section
// and interface headers. Re-attaching mid-split rotates that worker's
// stream to a new file — the drain point of a checkpoint-based worker
// migration — without disturbing the router's filter state or the
// global sequence numbering.
func (s *Splitter) Attach(i int, w io.Writer) error {
	ng, err := pcap.NewNGWriter(w, uint16(pcap.LinkTypeEthernet))
	if err != nil {
		return err
	}
	s.outs[i] = ng
	return nil
}

// Packet routes one frame, forwarding it to its worker when the
// dispatch path keeps it. A kept frame whose timestamp the worker stream
// cannot hold is dropped and counted (the manifest's DroppedTimeRange);
// any other write error is returned.
func (s *Splitter) Packet(at time.Time, frame []byte) error {
	shard, keep := s.router.Route(at, frame)
	if !keep {
		return nil
	}
	if s.outs[shard] == nil {
		return fmt.Errorf("cluster: worker %d has no attached output", shard)
	}
	switch err := s.outs[shard].WriteRecordID(at, frame, s.router.Packets); {
	case errors.Is(err, pcap.ErrTimeRange):
		s.timeRange++
	case err != nil:
		return err
	default:
		s.kept[shard]++
	}
	return nil
}

// FilterStats returns the capture filter's decision counters.
func (s *Splitter) FilterStats() capture.FilterStats { return s.router.FilterStats() }

// Manifest builds the split manifest for the aggregator.
func (s *Splitter) Manifest(truncated bool) Manifest {
	return Manifest{
		Version:          1,
		Workers:          len(s.outs),
		ClusterHead:      s.router.Head(truncated),
		KeptPerWorker:    slices.Clone(s.kept),
		DroppedTimeRange: s.timeRange,
	}
}

// Manifest is the JSON file the splitter leaves beside its output
// streams: the head counters the aggregator folds into the merged
// report (the embedded ClusterHead, its keys inline), plus the fan-out
// shape for sanity checks.
type Manifest struct {
	Version int `json:"version"`
	Workers int `json:"workers"`
	core.ClusterHead
	KeptPerWorker []uint64 `json:"kept_per_worker"`
	// DroppedTimeRange counts frames the front end kept but the splitter
	// dropped because their timestamp is outside the worker streams'
	// pcapng range; no worker saw them.
	DroppedTimeRange uint64 `json:"dropped_time_range,omitempty"`
}

// Head is the head counters a merge runs under: the splitter's, with the
// frames it dropped counted as undecodable, so every frame it read still
// ends in exactly one terminal bucket (core's AccountingGap).
func (m Manifest) Head() core.ClusterHead {
	h := m.ClusterHead
	h.Undecodable += m.DroppedTimeRange
	return h
}

// MarshalManifest renders m as indented JSON with a trailing newline.
func MarshalManifest(m Manifest) ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteManifest writes m as JSON to path.
func WriteManifest(path string, m Manifest) error {
	data, err := MarshalManifest(m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadManifest loads a manifest written by WriteManifest.
func ReadManifest(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	m, err := parseManifest(data)
	if err != nil {
		return Manifest{}, fmt.Errorf("cluster: manifest %s: %w", path, err)
	}
	return m, nil
}

// parseManifest decodes a manifest's bytes, which come from another
// process.
func parseManifest(data []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, err
	}
	if m.Version != 1 {
		return Manifest{}, fmt.Errorf("version %d not supported", m.Version)
	}
	return m, nil
}
