package main

// Seeded trace generators. Each writes one classic-pcap file through a
// 1 MB buffer and returns its packet count, byte size and SHA-256; the
// same seed gives a byte-identical file. The analyzer under test sees
// only these files.

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"time"

	"zoomlens/internal/capture"
	"zoomlens/internal/layers"
	"zoomlens/internal/pcap"
	"zoomlens/internal/sim"
	"zoomlens/internal/stun"
	"zoomlens/internal/trace"
)

// traceInfo describes one generated capture.
type traceInfo struct {
	Path    string        `json:"-"`
	Packets int           `json:"packets"`
	Bytes   int64         `json:"bytes"`
	SHA256  string        `json:"sha256"`
	Span    time.Duration `json:"capture_span_ns"`
}

// traceWriter is the generators' shared sink: a size-capped pcap writer
// that hashes what it writes. Callers hand it frames through write (the
// simulator's monitor signature, hence no error return) and collect the
// first error from close.
type traceWriter struct {
	f           *os.File
	bw          *bufio.Writer
	h           hash.Hash
	pw          *pcap.Writer
	limit       int
	packets     int
	first, last time.Time
	err         error
}

func newTraceWriter(path string, limit int) (*traceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := &traceWriter{f: f, h: sha256.New(), limit: limit}
	t.bw = bufio.NewWriterSize(io.MultiWriter(f, t.h), 1<<20)
	t.pw, err = pcap.NewWriter(t.bw, pcap.WriterOptions{Nanosecond: true})
	if err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

func (t *traceWriter) full() bool { return t.packets >= t.limit || t.err != nil }

func (t *traceWriter) write(at time.Time, frame []byte) {
	if t.full() {
		return
	}
	if t.err = t.pw.WriteRecord(at, frame); t.err != nil {
		return
	}
	if t.packets == 0 {
		t.first = at
	}
	t.last = at
	t.packets++
}

func (t *traceWriter) close() (traceInfo, error) {
	err := t.err
	if err == nil {
		err = t.bw.Flush()
	}
	if cerr := t.f.Close(); err == nil {
		err = cerr
	}
	if err == nil && t.packets < t.limit {
		err = fmt.Errorf("generator produced %d of %d packets", t.packets, t.limit)
	}
	if err != nil {
		return traceInfo{}, fmt.Errorf("writing %s: %w", t.f.Name(), err)
	}
	st, err := os.Stat(t.f.Name())
	if err != nil {
		return traceInfo{}, err
	}
	return traceInfo{
		Path: t.f.Name(), Packets: t.packets, Bytes: st.Size(),
		SHA256: hex.EncodeToString(t.h.Sum(nil)), Span: t.last.Sub(t.first),
	}, nil
}

// campusPlanSeed fixes who meets whom: the meeting plan (arrival times,
// sizes, screen share, P2P) and the participants' behaviour (join delays,
// mute and camera toggles, thumbnail senders, background bursts). The
// benchmark seed drives the world underneath — ports, payload and frame
// sizes, loss, jitter, retransmissions — so inputs differ per seed while
// the stream mix, and with it the per-packet cost and the memory per
// stream, stays comparable between runs of different seeds.
const campusPlanSeed = 20220505

// stunCanon makes campus traces reproducible. The simulator draws STUN
// transaction IDs from crypto/rand, the one thing in its output the seed
// does not control; fix renumbers them in order of first appearance
// (request and response keep sharing one) and rebuilds the frame so its
// checksums stay valid. Every other frame passes through untouched.
type stunCanon struct {
	parser layers.Parser
	b      layers.Builder
	ids    map[stun.TransactionID]uint64
}

func (c *stunCanon) fix(frame []byte) []byte {
	var pkt layers.Packet
	if c.parser.Parse(frame, &pkt) != nil || !pkt.HasUDP || !pkt.HasIPv4 || !stun.Is(pkt.Payload) {
		return frame
	}
	var tid stun.TransactionID
	copy(tid[:], pkt.Payload[8:20])
	n, ok := c.ids[tid]
	if !ok {
		n = uint64(len(c.ids) + 1)
		c.ids[tid] = n
	}
	payload := append([]byte(nil), pkt.Payload...)
	clear(payload[8:12])
	binary.BigEndian.PutUint64(payload[12:20], n)
	return c.b.BuildUDP(
		netip.AddrPortFrom(pkt.SrcAddr(), pkt.UDP.SrcPort),
		netip.AddrPortFrom(pkt.DstAddr(), pkt.UDP.DstPort),
		pkt.IPv4.TTL, payload)
}

// runCampus drives the campus simulator (trace.Schedule/Runner over a
// sim.World) into monitor until done reports true.
func runCampus(seed int64, monitor sim.MonitorFunc, done func() bool) {
	cfg := trace.DefaultConfig()
	cfg.Seed = campusPlanSeed
	cfg.Duration = 10 * time.Minute
	cfg.MeetingsPerHourPeak = 60
	plans := trace.Schedule(cfg)
	opts := sim.DefaultOptions()
	opts.Seed = seed
	opts.Start = cfg.Start
	opts.SkipExternalDelivery = true
	world := sim.NewWorld(opts)
	canon := stunCanon{ids: make(map[stun.TransactionID]uint64)}
	world.Monitor = func(at time.Time, frame []byte) { monitor(at, canon.fix(frame)) }
	trace.NewRunner(cfg, world).Install(plans)
	end := cfg.Start.Add(cfg.Duration)
	for at := cfg.Start; !done() && at.Before(end); {
		at = at.Add(time.Second)
		world.Run(at)
	}
}

// genCampus writes the first `packets` border-tap frames of the campus
// simulation: Zoom media through the SFU, TCP control, STUN, P2P
// switches and a little non-Zoom background.
func genCampus(path string, seed int64, sz sizes) (traceInfo, error) {
	tw, err := newTraceWriter(path, sz.campusPackets)
	if err != nil {
		return traceInfo{}, err
	}
	runCampus(seed, tw.write, tw.full)
	return tw.close()
}

// genTap writes a border-tap mix: each frame of a small campus Zoom slice
// is preceded by a burst of non-Zoom frames (tapPerZoom on average) with
// timestamps spread over the gap since the previous Zoom frame.
func genTap(path string, seed int64, sz sizes) (traceInfo, error) {
	tw, err := newTraceWriter(path, sz.tapFrames)
	if err != nil {
		return traceInfo{}, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x7a9))
	pool, err := backgroundPool(rng)
	if err != nil {
		tw.close()
		return traceInfo{}, err
	}
	var prev time.Time
	monitor := func(at time.Time, frame []byte) {
		if prev.IsZero() {
			prev = at
		}
		n := rng.Intn(2*sz.tapPerZoom + 1)
		gap := at.Sub(prev)
		for i := 0; i < n; i++ {
			tw.write(prev.Add(gap*time.Duration(i)/time.Duration(n)), pool[rng.Intn(len(pool))])
		}
		tw.write(at, frame)
		prev = at
	}
	runCampus(seed, monitor, tw.full)
	return tw.close()
}

// backgroundPool builds the distinct non-Zoom frames the tap mix draws
// from: 65 % minimum-size TCP ACKs (60 B), 33 % small UDP (80–200 B),
// 2 % full-size TCP data (1514 B), in both directions between campus
// hosts and a few well-known non-Zoom networks. Every frame is checked
// against the capture filter so the mix cannot drift into Zoom space.
func backgroundPool(rng *rand.Rand) ([][]byte, error) {
	campus := netip.MustParsePrefix("10.8.0.0/16")
	outside := []netip.Prefix{
		netip.MustParsePrefix("93.184.0.0/16"),
		netip.MustParsePrefix("151.101.0.0/16"),
		netip.MustParsePrefix("142.250.0.0/15"),
	}
	ports := []uint16{443, 80, 53, 123, 5353, 8080}
	filter := capture.NewFilter(capture.Config{ZoomNetworks: zoomNetworks(), GenericRTC: true})
	var parser layers.Parser
	var b layers.Builder
	pool := make([][]byte, 8192)
	for i := range pool {
		in := netip.AddrPortFrom(addrIn(rng, campus), uint16(30000+rng.Intn(30000)))
		out := netip.AddrPortFrom(addrIn(rng, outside[rng.Intn(len(outside))]), ports[rng.Intn(len(ports))])
		src, dst := in, out
		if rng.Intn(2) == 0 {
			src, dst = out, in
		}
		var frame []byte
		switch r := rng.Intn(100); {
		case r < 65:
			// Ethernet pads the 54-byte ACK to the 60-byte minimum.
			frame = append(b.BuildTCP(src, dst, 64, rng.Uint32(), rng.Uint32(), layers.TCPAck, 65535, nil), make([]byte, 6)...)
		case r < 98:
			payload := make([]byte, 80-42+rng.Intn(121))
			rng.Read(payload)
			frame = b.BuildUDP(src, dst, 64, payload)
		default:
			payload := make([]byte, 1514-54)
			rng.Read(payload)
			frame = b.BuildTCP(src, dst, 64, rng.Uint32(), rng.Uint32(), layers.TCPAck|layers.TCPPsh, 65535, payload)
		}
		var pkt layers.Packet
		if err := parser.Parse(frame, &pkt); err != nil {
			return nil, fmt.Errorf("background frame %d does not parse: %w", i, err)
		}
		if filter.Classify(&pkt, time.Time{}).Keep() {
			return nil, fmt.Errorf("background frame %d (%v -> %v) passes the Zoom capture filter", i, src, dst)
		}
		pool[i] = frame
	}
	return pool, nil
}

func addrIn(rng *rand.Rand, p netip.Prefix) netip.Addr {
	a := p.Addr().As4()
	v := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
	v |= rng.Uint32() >> p.Bits()
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// genChurn writes a trace.StreamGen capture: churnStreams concurrent
// media streams in round-robin, one retired and replaced every 32
// packets, on a 50 µs packet clock.
func genChurn(path string, seed int64, sz sizes) (traceInfo, error) {
	tw, err := newTraceWriter(path, sz.churnPackets)
	if err != nil {
		return traceInfo{}, err
	}
	cfg := trace.DefaultStreamConfig()
	cfg.Seed = seed
	cfg.Streams = sz.churnStreams
	cfg.Packets = sz.churnPackets
	cfg.ChurnEvery = 32
	cfg.Interval = 50 * time.Microsecond
	g, err := trace.NewStreamGen(cfg)
	if err != nil {
		tw.close()
		return traceInfo{}, err
	}
	var rec pcap.Record
	for {
		err := g.Next(&rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			tw.close()
			return traceInfo{}, err
		}
		tw.write(rec.Timestamp, rec.Data)
	}
	return tw.close()
}
