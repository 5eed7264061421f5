package trace

// StreamGen is the soak-harness workload: a streamed (never
// materialized) synthetic capture holding a configurable number of
// concurrent Zoom media streams alive on a compressed trace clock, with
// steady stream churn so eviction, archiving, and delta-checkpoint
// dirty-tracking all see realistic turnover. Unlike the simulator-backed
// Schedule/Runner path, memory is O(streams), not O(packets): each
// Next call synthesizes one frame into a reused buffer.

import (
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/pcap"
	"zoomlens/internal/sim"
)

// StreamConfig shapes a StreamGen workload.
type StreamConfig struct {
	// Seed drives all randomness (stream identities, churn order).
	Seed int64
	// Start is the trace-clock origin.
	Start time.Time
	// Streams is the number of concurrently live media streams.
	Streams int
	// Packets is the total packet budget; Next returns io.EOF after it.
	Packets int
	// Interval is the trace-clock gap between consecutive packets
	// (global, not per stream): the compressed soak clock.
	Interval time.Duration
	// ChurnEvery retires one stream (replacing it with a fresh identity)
	// every that many packets. 0 disables churn.
	ChurnEvery int
	// ZoomNet is the address range the servers are drawn from; the
	// analyzer's capture filter must be configured with it.
	ZoomNet netip.Prefix
	// CampusNet is the client address range.
	CampusNet netip.Prefix
}

// DefaultStreamConfig returns a laptop-scale soak shape; tests scale
// Streams/Packets up.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{
		Seed:       1,
		Start:      time.Date(2022, 5, 5, 10, 0, 0, 0, time.UTC),
		Streams:    1000,
		Packets:    100000,
		Interval:   50 * time.Microsecond,
		ChurnEvery: 64,
		ZoomNet:    netip.MustParsePrefix("52.81.0.0/16"),
		CampusNet:  netip.MustParsePrefix("10.8.0.0/16"),
	}
}

// soakStream is one live synthetic stream's generator state.
type soakStream struct {
	client, server netip.AddrPort
	h              sim.Header // the previous packet's, which Next advances
}

// StreamGen emits the workload one record at a time. Not safe for
// concurrent use; Data in the produced record is valid until the next
// call (the same borrowed-buffer contract as pcap.Stream.NextInto).
type StreamGen struct {
	cfg     StreamConfig
	rng     *rand.Rand
	streams []soakStream
	payload []byte
	wire    []byte // the UDP payload being built, reused
	now     time.Time
	emitted int
	next    int // round-robin cursor
	nextID  uint32
}

// NewStreamGen builds a generator; it validates the config eagerly so a
// misconfigured soak fails at setup, not mid-run.
func NewStreamGen(cfg StreamConfig) (*StreamGen, error) {
	if cfg.Streams <= 0 || cfg.Packets <= 0 {
		return nil, fmt.Errorf("trace: StreamGen needs Streams > 0 and Packets > 0")
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("trace: StreamGen needs a positive Interval")
	}
	if !cfg.ZoomNet.IsValid() || !cfg.CampusNet.IsValid() {
		return nil, fmt.Errorf("trace: StreamGen needs valid ZoomNet and CampusNet prefixes")
	}
	g := &StreamGen{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		streams: make([]soakStream, cfg.Streams),
		payload: make([]byte, 160),
		now:     cfg.Start,
	}
	g.rng.Read(g.payload)
	for i := range g.streams {
		g.streams[i] = g.newStream()
	}
	return g, nil
}

// newStream draws a fresh stream identity.
func (g *StreamGen) newStream() soakStream {
	g.nextID++
	id := g.nextID
	// Spread clients across the campus prefix and ports so five-tuples
	// stay unique; servers sit on the Zoom media port.
	client := netip.AddrPortFrom(randomAddrIn(g.rng, g.cfg.CampusNet), uint16(20000+g.rng.Intn(40000)))
	server := netip.AddrPortFrom(randomAddrIn(g.rng, g.cfg.ZoomNet), 8801)
	s := soakStream{client: client, server: server, h: sim.Header{Kind: sim.KindAudio, FromSFU: true, PT: sim.PTAudioSpeak,
		Seq: uint16(g.rng.Intn(1 << 16)), TS: g.rng.Uint32(), SSRC: 0x10000 + id}}
	if id%3 != 0 {
		s.h.Kind, s.h.PT, s.h.Marker, s.h.FramePkts = sim.KindVideo, sim.PTVideoMain, true, 1
	}
	return s
}

// Now returns the current trace-clock time.
func (g *StreamGen) Now() time.Time { return g.now }

// Next fills rec with the next synthetic record. rec.Data borrows the
// generator's buffer and is valid until the following call. Returns
// io.EOF once the packet budget is spent.
func (g *StreamGen) Next(rec *pcap.Record) error {
	if g.emitted >= g.cfg.Packets {
		return io.EOF
	}
	if g.cfg.ChurnEvery > 0 && g.emitted > 0 && g.emitted%g.cfg.ChurnEvery == 0 {
		g.streams[g.rng.Intn(len(g.streams))] = g.newStream()
	}
	s := &g.streams[g.next%len(g.streams)]
	g.next++

	h := &s.h
	h.Seq, h.TS, h.MediaSeq, h.SFUSeq = h.Seq+1, h.TS+3000, h.MediaSeq+1, h.SFUSeq+1
	h.MediaTS = h.TS
	if h.Kind == sim.KindVideo {
		h.FrameSeq = (h.FrameSeq + 1) % 256 // the soak's frame counter has always been one byte
	}
	g.wire = append(sim.AppendHeaders(g.wire[:0], h), g.payload...)
	frame := layers.EthernetIPv4UDP(s.server, s.client, 64, g.wire)

	g.now = g.now.Add(g.cfg.Interval)
	g.emitted++
	rec.Timestamp = g.now
	rec.Data = frame
	rec.OriginalLen = len(frame)
	return nil
}
