package zoomlens

// Robustness tests: the analyzer is built for hostile input (a border
// tap sees everything), so no packet — truncated, corrupted, or
// adversarial — may panic it or corrupt its state.

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/meeting"
	"zoomlens/internal/pcap"
	"zoomlens/internal/rtp"
	"zoomlens/internal/sim"
	"zoomlens/internal/stun"
	"zoomlens/internal/zoom"
)

func TestAnalyzerSurvivesRandomGarbage(t *testing.T) {
	a := NewAnalyzer(Config{ZoomNetworks: DefaultZoomNetworks()})
	rng := rand.New(rand.NewSource(99))
	at := time.Date(2022, 5, 5, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 20000; i++ {
		n := rng.Intn(200)
		frame := make([]byte, n)
		rng.Read(frame)
		a.Packet(at.Add(time.Duration(i)*time.Millisecond), frame)
	}
	a.Finish()
	if a.Packets != 20000 {
		t.Errorf("packets = %d", a.Packets)
	}
	_ = a.Summary()
	_ = a.Meetings()
}

func TestAnalyzerSurvivesBitFlippedZoomTraffic(t *testing.T) {
	// Generate real Zoom frames, then flip random bits/truncate before
	// analysis: parse failures must be counted, never fatal.
	opts := DefaultWorldOptions()
	w := NewWorld(opts)
	a := NewAnalyzer(Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	})
	rng := rand.New(rand.NewSource(5))
	w.Monitor = func(at time.Time, frame []byte) {
		cp := make([]byte, len(frame))
		copy(cp, frame)
		switch rng.Intn(4) {
		case 0: // flip a random byte
			cp[rng.Intn(len(cp))] ^= byte(1 + rng.Intn(255))
		case 1: // truncate
			cp = cp[:rng.Intn(len(cp)+1)]
		case 2: // corrupt the payload area heavily
			for j := 0; j < 8 && len(cp) > 40; j++ {
				cp[40+rng.Intn(len(cp)-40)] ^= 0xff
			}
		}
		a.Packet(at, cp)
	}
	m := w.NewMeeting()
	m.Join(w.NewClient("a", true), DefaultMediaSet())
	m.Join(w.NewClient("b", true), DefaultMediaSet())
	w.Run(opts.Start.Add(10 * time.Second))
	a.Finish()
	if a.Packets == 0 {
		t.Fatal("nothing analyzed")
	}
	// Some packets survive corruption (case 3 untouched), some don't.
	if a.Summary().ZoomUDP == 0 {
		t.Error("no packets decoded at all")
	}
	if a.Summary().Undecodable == 0 {
		t.Error("corruption never detected — parser too lax?")
	}
}

func TestQuickParsersNeverPanic(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = zoom.ParsePacket(data, zoom.ModeAuto)
		_, _ = zoom.ParsePacket(data, zoom.ModeServer)
		_, _ = zoom.ParsePacket(data, zoom.ModeP2P)
		_, _ = rtp.Parse(data)
		_, _ = rtp.ParseCompound(data)
		_, _ = stun.Parse(data)
		_ = stun.Is(data)
		var p layers.Packet
		_ = (&layers.Parser{}).Parse(data, &p)
		_ = (&layers.Parser{First: layers.FirstIP}).Parse(data, &p)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestQuickZoomParseMarshalStable holds the parser to the simulator's
// writer on nearly-valid packets: whatever parses and the writer can
// express (an RTP media packet with no CSRC, extension or padding, and a
// direction byte of 0x00 or 0x04), rewritten from its decoded fields,
// parses back to the same fields.
func TestQuickZoomParseMarshalStable(t *testing.T) {
	f := func(data []byte) bool {
		zp, err := zoom.ParsePacket(data, zoom.ModeAuto)
		if err != nil || !zp.IsMedia() || len(zp.RTP.CSRC) > 0 || zp.RTP.Extension || zp.RTP.Padding {
			return true
		}
		h := sim.Header{Layout: sim.LayoutP2P, Kind: sim.Kind(zp.Media.Type), SFUSeq: zp.SFU.Sequence, FromSFU: zp.SFU.FromSFU(),
			MediaSeq: zp.Media.Sequence, MediaTS: zp.Media.Timestamp, FrameSeq: zp.Media.FrameSequence, FramePkts: zp.Media.PacketsInFrame,
			PT: zp.RTP.PayloadType, Marker: zp.RTP.Marker, Seq: zp.RTP.SequenceNumber, TS: zp.RTP.Timestamp, SSRC: zp.RTP.SSRC}
		if zp.ServerBased {
			if d := zp.SFU.Direction; d != 0x00 && d != zoom.DirFromSFU {
				return true
			}
			h.Layout = sim.LayoutServer
		}
		got, err := zoom.ParsePacket(append(sim.AppendHeaders(nil, &h), zp.RTP.Payload...), zoom.ModeAuto)
		return err == nil && reflect.DeepEqual(got, zp)
	}
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			// Bias generation toward nearly-valid Zoom packets so the
			// parser accepts a useful fraction.
			h := sim.Header{Layout: sim.LayoutP2P}
			if rng.Intn(2) == 0 {
				h.Layout = sim.LayoutServer
			}
			h.SFUSeq = uint16(rng.Uint32())
			h.Kind = []sim.Kind{sim.KindAudio, sim.KindVideo, sim.KindScreen}[rng.Intn(3)]
			h.MediaSeq, h.MediaTS = uint16(rng.Uint32()), rng.Uint32()
			h.PT, h.Seq, h.TS, h.SSRC, h.Marker = uint8(rng.Intn(128)), uint16(rng.Uint32()), rng.Uint32(), rng.Uint32(), rng.Intn(2) == 0
			payload := make([]byte, rng.Intn(64))
			rng.Read(payload)
			wire := append(sim.AppendHeaders(nil, &h), payload...)
			// Sometimes corrupt a byte so the negative path is covered.
			if rng.Intn(3) == 0 {
				wire[rng.Intn(len(wire))] ^= byte(1 + rng.Intn(255))
			}
			vals[0] = reflect.ValueOf(wire)
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestGroupingOrderInvariance checks a key property of the §4.3
// heuristic as implemented: the inferred meeting *partition* does not
// depend on record order (merging makes assignment order-insensitive).
func TestGroupingOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mkClient := func(ip byte, port uint16) netip.AddrPort {
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 8, 0, ip}), port)
	}
	base := time.Date(2022, 5, 5, 9, 0, 0, 0, time.UTC)
	// Three ground-truth meetings sharing streams/clients internally.
	var records []meeting.StreamRecord
	uid := meeting.UnifiedID(1)
	for g := 0; g < 3; g++ {
		nClients := 2 + rng.Intn(3)
		clients := make([]netip.AddrPort, nClients)
		for i := range clients {
			clients[i] = mkClient(byte(10*g+i+1), uint16(40000+100*g+i))
		}
		for s := 0; s < 4; s++ {
			// Each unified stream is observed at 1–3 clients of its group.
			n := 1 + rng.Intn(3)
			for c := 0; c < n && c < nClients; c++ {
				records = append(records, meeting.StreamRecord{
					Unified: uid,
					Client:  clients[(s+c)%nClients],
					Start:   base.Add(time.Duration(rng.Intn(60)) * time.Second),
					End:     base.Add(time.Duration(60+rng.Intn(60)) * time.Second),
				})
			}
			uid++
		}
	}

	partition := func(recs []meeting.StreamRecord) map[meeting.UnifiedID]int {
		ms := meeting.Group(recs)
		out := map[meeting.UnifiedID]int{}
		for gi, m := range ms {
			for _, s := range m.Streams {
				out[s] = gi
			}
		}
		return out
	}
	ref := partition(records)
	for trial := 0; trial < 20; trial++ {
		shuffled := make([]meeting.StreamRecord, len(records))
		copy(shuffled, records)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := partition(shuffled)
		// Same-partition relation must match (group indices may differ).
		for a := range ref {
			for b := range ref {
				same := ref[a] == ref[b]
				gotSame := got[a] == got[b]
				if same != gotSame {
					t.Fatalf("trial %d: streams %d,%d partition differs (ref %v, got %v)", trial, a, b, same, gotSame)
				}
			}
		}
	}
}

// TestHostileClockBeyondNanosecondRange: the per-stream accumulators
// keep capture time as int64 Unix nanoseconds (years 1678–2262), and a
// pcapng enhanced packet block can claim far more. Two video packets in
// the middle of the trace are repeated under such stamps — the year 3000,
// and the largest 64-bit count of an interface ticking in microseconds.
// The run must finish, agree with itself at two workers, hold those two
// instants at the representation's last nanosecond rather than wrap
// them, and leave every sample taken before them, and every other
// stream, as the clean capture has them.
func TestHostileClockBeyondNanosecondRange(t *testing.T) {
	at, frames, cfg := benchTrace(t)

	// micros is what NGWriter must be handed for its 64-bit field to
	// carry n once the interface is patched to microsecond ticks below.
	// The writer refuses a time past its own range, so the hostile counts
	// are patched into their blocks' timestamp fields instead.
	micros := func(n uint64) time.Time { return time.Unix(0, int64(n)) }
	stamps := []uint64{uint64(time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC).Unix()) * 1e6, math.MaxUint64}
	write := func(hostile bool) []byte {
		var buf bytes.Buffer
		ng, err := pcap.NewNGWriter(&buf, uint16(pcap.LinkTypeEthernet))
		if err != nil {
			t.Fatal(err)
		}
		parser, left := &layers.Parser{}, stamps
		var pkt layers.Packet
		for i := range frames {
			if err := ng.WriteRecord(micros(uint64(at[i].UnixMicro())), frames[i]); err != nil {
				t.Fatal(err)
			}
			if !hostile || i < len(frames)/2 || len(left) == 0 || parser.Parse(frames[i], &pkt) != nil || !pkt.HasUDP {
				continue
			}
			if zp, err := zoom.ParsePacket(pkt.Payload, zoom.ModeAuto); err == nil && zp.Media.Type == zoom.TypeVideo {
				off := buf.Len()
				if err := ng.WriteRecord(at[i], frames[i]); err != nil {
					t.Fatal(err)
				}
				// The enhanced packet block's timestamp, high word then low,
				// follows its type, length and interface ID.
				epb := buf.Bytes()[off:]
				binary.LittleEndian.PutUint32(epb[12:], uint32(left[0]>>32))
				binary.LittleEndian.PutUint32(epb[16:], uint32(left[0]))
				left = left[1:]
			}
		}
		if hostile && len(left) > 0 {
			t.Fatal("no video packet in the second half of the trace")
		}
		// The interface description's if_tsresol option: 9 (nanoseconds) → 6.
		resol := []byte{9, 0, 1, 0, 9, 0, 0, 0}
		i := bytes.Index(buf.Bytes(), resol)
		if i < 0 || i > 64 {
			t.Fatal("if_tsresol option not found in the interface description")
		}
		buf.Bytes()[i+4] = 6
		return buf.Bytes()
	}
	replay := func(serialized []byte, workers int) *Analyzer { return replayCapture(t, serialized, cfg, workers) }

	clean, hostile := replay(write(false), 1), replay(write(true), 1)
	if got, want := renderReport(replay(write(true), 2)), renderReport(hostile); got != want {
		t.Errorf("workers=2 report diverges from sequential on the hostile capture (lens %d vs %d)", len(got), len(want))
	}

	cut := at[len(frames)/2].UnixNano() // nothing hostile was written before this instant
	before := func(ss []Sample, margin time.Duration) []Sample {
		i := 0
		for i < len(ss) && ss[i].At+int64(margin) <= cut {
			i++
		}
		return ss[:i]
	}
	touched, saturated := 0, 0
	for _, seg := range clean.Streams() {
		id, want := seg.ID, seg.Metrics
		got, ok := hostile.StreamMetrics[id]
		if !ok {
			t.Fatalf("stream %v missing from the hostile run", id)
		}
		if got.Packets == want.Packets {
			// No hostile record reached this stream.
			if !slices.Equal(samplesOf(got.JitterMS), samplesOf(want.JitterMS)) || !slices.Equal(samplesOf(got.MediaRate), samplesOf(want.MediaRate)) ||
				!slices.Equal(samplesOf(got.FrameSize()), samplesOf(want.FrameSize())) {
				t.Errorf("stream %v saw no hostile record and its series changed", id)
			}
			continue
		}
		touched++
		for name, pair := range map[string][2][]Sample{
			"jitter":     {before(samplesOf(got.JitterMS), 0), before(samplesOf(want.JitterMS), 0)},
			"frame size": {before(samplesOf(got.FrameSize()), 0), before(samplesOf(want.FrameSize()), 0)},
			// A rate sample is stamped with the start of its second.
			"media rate": {before(samplesOf(got.MediaRate), time.Second), before(samplesOf(want.MediaRate), time.Second)},
		} {
			if len(pair[1]) == 0 || !slices.Equal(pair[0], pair[1]) {
				t.Errorf("stream %v: %s samples taken before the hostile record changed (%d vs %d)", id, name, len(pair[0]), len(pair[1]))
			}
		}
		for _, s := range samplesOf(got.MediaRate) {
			if s.Time().Year() == 2262 {
				saturated++
			}
		}
	}
	if touched == 0 || saturated == 0 {
		t.Errorf("%d streams received a hostile record and %d samples sit at the end of the nanosecond range; want both above zero", touched, saturated)
	}
}
