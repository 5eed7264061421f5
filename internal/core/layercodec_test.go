package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/layers"
	"zoomlens/internal/meeting"
	"zoomlens/internal/metrics"
	"zoomlens/internal/obs"
	"zoomlens/internal/rtp"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/zoom"
)

// Layer-boundary tests for the one-pass codec: each stateful layer is
// driven through its public packet-path API and walked through a Codec
// directly, below where the engine differentials reach.

type coder interface{ Code(*statecodec.Codec) }

// tableCoder is a flow table walked as a layer of its own: no driver
// state rides its stream records.
type tableCoder struct{ *flow.Table }

func (t tableCoder) Code(c *statecodec.Codec) { t.Table.Code(c, nil) }

func layerRecord(l coder, full bool) []byte {
	var w statecodec.Writer
	l.Code(statecodec.NewEncoder(&w, full))
	return w.Bytes()
}

func layerApply(l coder, rec []byte) error {
	r := statecodec.NewReader(rec)
	l.Code(statecodec.NewDecoder(r))
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return errors.New("trailing bytes")
	}
	return nil
}

func layerTuple(host byte) layers.FiveTuple {
	return layers.FiveTuple{
		Src: netip.AddrFrom4([4]byte{10, 8, 0, host}), Dst: netip.AddrFrom4([4]byte{52, 81, 3, 4}),
		SrcPort: 40000, DstPort: 8801, Proto: layers.ProtoUDP,
	}
}

func keyBytes(walk func(c *statecodec.Codec)) []byte {
	var w statecodec.Writer
	walk(statecodec.NewEncoder(&w, true))
	return w.Bytes()
}

var layerT0 = time.Date(2022, 3, 1, 12, 0, 0, 0, time.UTC)

func videoPacket(ssrc uint32, seq uint16, ts uint32) zoom.Packet {
	return zoom.Packet{
		ServerBased: true,
		Media:       zoom.MediaEncap{Type: zoom.TypeVideo, Sequence: seq, Timestamp: ts},
		RTP: rtp.Packet{
			Header:  rtp.Header{PayloadType: 98, SequenceNumber: seq, Timestamp: ts, SSRC: ssrc},
			Payload: []byte{1, 2, 3, 4},
		},
	}
}

// layerCases drive each layer through two phases — build-up, then churn
// with evictions — and, for the key-order test, build a state whose
// first keyed collection holds exactly two same-sized records.
var layerCases = []struct {
	name  string
	fresh func() coder
	step  func(l coder, phase int)
	mark  func(l coder)
	// two builds the two-record state; keyA < keyB are the records'
	// encoded keys.
	two        func() coder
	keyA, keyB []byte
}{
	{
		name:  "flow.Table",
		fresh: func() coder { return tableCoder{flow.NewTable()} },
		step: func(l coder, phase int) {
			t := l.(tableCoder)
			at := layerT0.Add(time.Duration(phase) * time.Minute)
			for h := byte(1); h <= 6; h++ {
				if phase == 1 && h%2 == 0 {
					continue // goes idle, evicted below
				}
				for p := 0; p < 3; p++ {
					t.Observe(&flow.Record{Time: at.Add(time.Duration(p) * time.Millisecond), Flow: layerTuple(h), WireLen: 100,
						Z: videoPacket(uint32(h), uint16(10*phase+p), uint32(3000*p))})
				}
			}
			if phase == 1 {
				t.Observe(&flow.Record{Time: at, Flow: layerTuple(9), WireLen: 90, Z: videoPacket(9, 1, 1)})
				t.EvictIdle(layerT0.Add(30 * time.Second))
			}
		},
		mark: func(l coder) { l.(tableCoder).MarkCheckpointed() },
		two: func() coder {
			t := flow.NewTable()
			t.Observe(&flow.Record{Time: layerT0, Flow: layerTuple(1), WireLen: 100})
			t.Observe(&flow.Record{Time: layerT0, Flow: layerTuple(2), WireLen: 100})
			return tableCoder{t}
		},
		keyA: keyBytes(func(c *statecodec.Codec) { k := layerTuple(1); k.Code(c) }),
		keyB: keyBytes(func(c *statecodec.Codec) { k := layerTuple(2); k.Code(c) }),
	},
	{
		name:  "meeting.Dedup",
		fresh: func() coder { return meeting.NewDedup() },
		step: func(l coder, phase int) {
			d := l.(*meeting.Dedup)
			at := layerT0.Add(time.Duration(phase) * time.Minute)
			for h := byte(1); h <= 6; h++ {
				if phase == 1 && h%2 == 0 {
					continue
				}
				// Hosts 1-3 and 4-6 carry copies of the same two SSRCs.
				key := zoom.StreamKey{SSRC: uint32(100 + h%3), Type: zoom.TypeVideo}
				d.Observe(meeting.StreamObs{Time: at, Flow: layerTuple(h), Key: key, Seq: uint16(phase), TS: uint32(3000 * phase)})
			}
			if phase == 1 {
				d.Observe(meeting.StreamObs{Time: at, Flow: layerTuple(9), Key: zoom.StreamKey{SSRC: 900, Type: zoom.TypeAudio}, TS: 7})
				d.Evict(layerT0.Add(30 * time.Second))
			}
		},
		mark: func(l coder) { l.(*meeting.Dedup).MarkCheckpointed() },
		two: func() coder {
			d := meeting.NewDedup()
			key := zoom.StreamKey{SSRC: 100, Type: zoom.TypeVideo}
			d.Observe(meeting.StreamObs{Time: layerT0, Flow: layerTuple(1), Key: key, TS: 5})
			d.Observe(meeting.StreamObs{Time: layerT0, Flow: layerTuple(2), Key: key, TS: 5})
			return d
		},
		keyA: keyBytes(func(c *statecodec.Codec) {
			id := flow.MediaStreamID{Flow: layerTuple(1), Key: zoom.StreamKey{SSRC: 100, Type: zoom.TypeVideo}}
			id.Code(c)
		}),
		keyB: keyBytes(func(c *statecodec.Codec) {
			id := flow.MediaStreamID{Flow: layerTuple(2), Key: zoom.StreamKey{SSRC: 100, Type: zoom.TypeVideo}}
			id.Code(c)
		}),
	},
	{
		name:  "metrics.CopyMatcher",
		fresh: func() coder { return metrics.NewCopyMatcher() },
		step: func(l coder, phase int) {
			cm := l.(*metrics.CopyMatcher)
			at := layerT0.Add(time.Duration(phase) * time.Second)
			up := layerTuple(1)
			down := layers.FiveTuple{
				Src: netip.AddrFrom4([4]byte{52, 81, 3, 4}), Dst: netip.AddrFrom4([4]byte{10, 8, 0, 2}),
				SrcPort: 8801, DstPort: 40000, Proto: layers.ProtoUDP,
			}
			for i := 0; i < 20; i++ {
				seq := uint16(100*phase + i)
				cm.Observe(meeting.UnifiedID(1+i%3), up, 98, seq, uint32(seq)*3000, at)
				if i%2 == phase {
					// The copy matches: a sample, and the pending entry dies.
					cm.Observe(meeting.UnifiedID(1+i%3), down, 98, seq, uint32(seq)*3000, at.Add(7*time.Millisecond))
				}
			}
			if phase == 1 {
				// Match entries left pending by phase 0: tombstones for
				// records the base checkpoint holds.
				for i := 1; i < 20; i += 4 {
					cm.Observe(meeting.UnifiedID(1+i%3), down, 98, uint16(i), uint32(i)*3000, at)
				}
			}
		},
		mark: func(l coder) { l.(*metrics.CopyMatcher).MarkCheckpointed() },
		two: func() coder {
			cm := metrics.NewCopyMatcher()
			cm.Observe(1, layerTuple(1), 98, 1, 100, layerT0)
			cm.Observe(2, layerTuple(1), 98, 1, 100, layerT0)
			return cm
		},
		// Two stream records: the unified id as Int, then the stream's
		// latest observation time.
		keyA: binary.AppendVarint([]byte{2}, layerT0.UnixNano()),
		keyB: binary.AppendVarint([]byte{4}, layerT0.UnixNano()),
	},
	{
		name:  "metrics.StreamMetrics",
		fresh: func() coder { return new(metrics.StreamMetrics) },
		step: func(l coder, phase int) {
			sm := l.(*metrics.StreamMetrics)
			if phase == 0 {
				*sm = *metrics.NewStreamMetrics(zoom.TypeVideo)
			}
			sm.MarkDirty() // as the shard does before a packet: notes where the logs stood
			for p := 0; p < 12; p++ {
				n := 12*phase + p
				zp := videoPacket(7, uint16(n), uint32(n/3)*3000) // three packets per frame
				zp.RTP.Marker = n%3 == 2
				sm.Observe(layerT0.Add(time.Duration(n)*11*time.Millisecond), 120, &zp.Media, &zp.RTP)
			}
			zp := videoPacket(7, uint16(900+phase), 1) // FEC substream: its own sequence space
			zp.RTP.PayloadType = 110
			sm.Observe(layerT0.Add(time.Duration(phase)*time.Second), 80, &zp.Media, &zp.RTP)
			// Three frames that stay open (one packet of two each), so the
			// record carries a part-filled sequence window, timestamp ring
			// and open-frame list, and the delta extends all three.
			for f := 0; f < 3; f++ {
				zp := videoPacket(7, uint16(500+10*phase+f), uint32(100+10*phase+f)*3000)
				zp.Media.PacketsInFrame = 2
				sm.Observe(layerT0.Add(time.Duration(phase)*time.Second), 120, &zp.Media, &zp.RTP)
			}
		},
		mark: func(coder) {}, // step's MarkDirty re-anchors the baselines
		two: func() coder {
			sm := metrics.NewStreamMetrics(zoom.TypeVideo)
			for _, seq := range []uint16{39000, 40000, 40001} {
				zp := videoPacket(7, seq, 1)
				sm.Observe(layerT0, 120, &zp.Media, &zp.RTP)
			}
			return sm
		},
		// The open frame's distinct sequence numbers, {39000, 40000,
		// 40001}: uvarints 40000 and 40001 (39000 keeps them out of the
		// scalars).
		keyA: []byte{0xc0, 0xb8, 0x02},
		keyB: []byte{0xc1, 0xb8, 0x02},
	},
}

// TestLayerCodecFullAndDelta: (i) a full record onto a fresh layer
// re-encodes byte-identically; (ii) full@t0 + delta(t0→t1), with
// evictions and tombstones in the interval, re-encodes byte-identically
// to full@t1 — and so do the two deltas after it, each cut from where the
// one before left off, not from the full.
func TestLayerCodecFullAndDelta(t *testing.T) {
	for _, tc := range layerCases {
		t.Run(tc.name, func(t *testing.T) {
			live := tc.fresh()
			tc.step(live, 0)
			full0 := bytes.Clone(layerRecord(live, true))
			tc.mark(live)

			replica := tc.fresh()
			if err := layerApply(replica, full0); err != nil {
				t.Fatalf("full record onto a fresh layer: %v", err)
			}
			if got := layerRecord(replica, true); !bytes.Equal(got, full0) {
				t.Fatalf("full → fresh layer → full differs (%d vs %d bytes)", len(got), len(full0))
			}
			tc.mark(replica)

			for phase := 1; phase <= 3; phase++ {
				tc.step(live, phase)
				delta := bytes.Clone(layerRecord(live, false))
				tc.mark(live)
				if err := layerApply(replica, delta); err != nil {
					t.Fatalf("delta %d onto its base: %v", phase, err)
				}
				tc.mark(replica)
				if got, want := layerRecord(replica, true), layerRecord(live, true); !bytes.Equal(got, want) {
					t.Fatalf("full@t0 + %d deltas differs from full@t%d (%d vs %d bytes)", phase, phase, len(got), len(want))
				}
			}
		})
	}
}

// TestLayerCodecRejectsUnorderedKeys: (iii) a record whose two keys are
// equal or descending is rejected with ErrCorrupt. The two same-sized
// records are located in a real full record by their encoded keys and
// swapped or doubled in place.
func TestLayerCodecRejectsUnorderedKeys(t *testing.T) {
	for _, tc := range layerCases {
		t.Run(tc.name, func(t *testing.T) {
			full := bytes.Clone(layerRecord(tc.two(), true))
			i := bytes.Index(full, tc.keyA)
			if i < 0 {
				t.Fatal("first key not found in the record")
			}
			off := bytes.Index(full[i+len(tc.keyA):], tc.keyB)
			if off < 0 {
				t.Fatal("second key not found after the first")
			}
			j := i + len(tc.keyA) + off
			size := j - i
			if j+size > len(full) {
				t.Fatalf("records at %d and %d are not the same size", i, j)
			}
			a, b := full[i:j], full[j:j+size]
			splice := func(x, y []byte) []byte {
				return bytes.Join([][]byte{full[:i], x, y, full[j+size:]}, nil)
			}
			if err := layerApply(tc.fresh(), splice(a, b)); err != nil {
				t.Fatalf("splicing the records back in order broke the record: %v", err)
			}
			for name, rec := range map[string][]byte{"descending": splice(b, a), "equal": splice(a, a)} {
				err := layerApply(tc.fresh(), rec)
				if !errors.Is(err, statecodec.ErrCorrupt) || !strings.Contains(err.Error(), "ascending") {
					t.Errorf("%s keys: err = %v, want ErrCorrupt (keys not strictly ascending)", name, err)
				}
			}
		})
	}
}

// TestLayerCodecRejectsOverfullWindows: a stream record whose timestamp
// ring or open-frame list claims more than its 64 entries, or whose
// open-frame list names a frame twice, is rejected. The counts and
// timestamps are found in a real record by the bytes around them.
func TestLayerCodecRejectsOverfullWindows(t *testing.T) {
	const tsA, tsB = 0x01020304, 0x01020305
	sm := metrics.NewStreamMetrics(zoom.TypeVideo)
	for i, ts := range []uint32{tsA, tsB} { // two frames, both left open
		zp := videoPacket(7, uint16(i), ts)
		zp.Media.PacketsInFrame = 2
		sm.Observe(layerT0, 120, &zp.Media, &zp.RTP)
	}
	full := bytes.Clone(layerRecord(sm, true))
	a, b := binary.AppendUvarint(nil, tsA), binary.AppendUvarint(nil, tsB)
	two, sixtyFive := binary.AppendVarint(nil, 2), binary.AppendVarint(nil, 65)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// patch replaces old, which must follow before exactly once, by repl.
	patch := func(before, old, repl []byte) []byte {
		if bytes.Count(full, cat(before, old)) != 1 {
			t.Fatalf("% x does not occur once in the record", cat(before, old))
		}
		return bytes.Replace(full, cat(before, old), cat(before, repl), 1)
	}
	// The ring: count, the timestamps oldest first, the newest. The
	// assembler: newest timestamp, seen, count, then each frame from its
	// timestamp, the first frame's fields starting with frame sequence 0
	// and layerT0.
	ringTail, listHead := cat(a, b, b), cat(b, []byte{1})
	frameA := cat(a, []byte{0}, binary.AppendVarint(nil, layerT0.UnixNano()))
	for _, tc := range []struct {
		name, want string
		rec        []byte
	}{
		{"unmodified", "", full},
		{"ring of 65", "tsRing of 65", bytes.Replace(full, cat(two, ringTail), cat(sixtyFive, ringTail), 1)},
		{"65 open frames", "65 open frames", patch(listHead, two, sixtyFive)},
		{"open frame twice", "duplicate open frame", patch(cat(listHead, two), frameA, cat(b, frameA[len(a):]))},
	} {
		err := layerApply(new(metrics.StreamMetrics), tc.rec)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (!errors.Is(err, statecodec.ErrCorrupt) || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want ErrCorrupt (%s)", tc.name, err, tc.want)
		}
	}
}

// TestDeltaRejectsEditedLogBaseline: a delta record in which one of a
// stream's four log baselines was changed — and the CRC trailer resealed, so
// the trailer cannot do the rejecting — is refused with ErrCorrupt: its
// tails would land on the wrong place in the logs the engine holds. The
// stream's record is found in the engine's delta by encoding the stream
// alone; its baselines follow the media type byte.
func TestDeltaRejectsEditedLogBaseline(t *testing.T) {
	tr, opts := seededTrace(t, 10)
	cfg := Config{ZoomNetworks: []netip.Prefix{opts.ZoomNet}, CampusNetworks: []netip.Prefix{opts.CampusNet}}
	n := len(tr.frames)
	live := NewAnalyzer(cfg)
	for i := 0; i < n/2; i++ {
		live.Packet(tr.at[i], tr.frames[i])
	}
	full := bytes.Clone(checkpointBytes(t, live))
	for i := n / 2; i < 3*n/4; i++ {
		live.Packet(tr.at[i], tr.frames[i])
	}
	// A video stream the delta will carry, with history behind each log
	// that has a tail, so every edited baseline is a real position.
	listed := make(map[*metrics.StreamMetrics]bool)
	for _, st := range live.Flows.Streams() {
		if own := st.Owner.(*streamOwner); own.epoch == live.ckEpoch {
			listed[own.sm] = true
		}
	}
	var streamRec []byte
	for _, seg := range live.Streams() { // in ID order: the same stream every run
		if sm := seg.Metrics; sm.MediaType == zoom.TypeVideo && listed[sm] && sm.Frames().Len() > 40 && sm.MediaRate.Samples.Len() > 2 {
			streamRec = bytes.Clone(layerRecord(sm, false))
			break
		}
	}
	if streamRec == nil {
		t.Fatal("no dirty video stream with history in the live engine")
	}
	var buf bytes.Buffer
	if err := live.CheckpointDelta(&buf); err != nil {
		t.Fatal(err)
	}
	delta := buf.Bytes()
	at := bytes.Index(delta, streamRec)
	if at < 0 || bytes.Count(delta, streamRec) != 1 {
		t.Fatalf("the stream's record occurs %d times in the delta, want once", bytes.Count(delta, streamRec))
	}
	apply := func(rec []byte) error {
		target, err := RestoreAnalyzer(bytes.NewReader(full), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer Discard(target) // a failed apply leaves it half-written
		return target.ApplyDelta(bytes.NewReader(rec))
	}
	if err := apply(delta); err != nil {
		t.Fatalf("unedited delta: %v", err)
	}
	// The baselines are zigzag varints: +2 on one's first byte moves it one
	// position forward without changing its length.
	off := at + 1
	for _, name := range []string{"frames", "jitter", "media rate", "talk"} {
		_, size := binary.Varint(delta[off:])
		if size <= 0 || delta[off]&0x7f >= 0x7e {
			t.Fatalf("%s baseline at %d (% x) cannot be moved in place", name, off, delta[off:off+2])
		}
		edited := bytes.Clone(delta[:len(delta)-4])
		edited[off] += 2
		off += size
		edited = binary.LittleEndian.AppendUint32(edited, crc32.Checksum(edited, crcTable))
		if err := apply(edited); !errors.Is(err, statecodec.ErrCorrupt) || !strings.Contains(err.Error(), "log baselines") {
			t.Errorf("%s baseline moved by one: err = %v, want ErrCorrupt (log baselines)", name, err)
		}
	}
}

// newEngine builds a sequential engine for one worker, a sharded one
// for more.
func newEngine(cfg Config, workers int) Engine {
	if workers > 1 {
		return NewParallelAnalyzer(cfg, workers)
	}
	return NewAnalyzer(cfg)
}

// TestCheckpointSmallestRecords restores the checkpoints whose elements
// are as small as the format allows: a never-fed engine (every counter
// and count one byte, idle shards ending the payload) and a trace
// rebased to the Unix epoch (three-byte timestamps). A hostile-count
// guard that overstates an element's minimum size rejects these valid
// files; at every cut the restored engine must re-encode byte-identically
// and finish with the uninterrupted run's summary.
func TestCheckpointSmallestRecords(t *testing.T) {
	tr, opts := seededTrace(t, 4)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	epoch := func(i int) time.Time { return time.Unix(0, 0).Add(tr.at[i].Sub(tr.at[0])) }
	for _, workers := range []int{1, 4} {
		ref := newEngine(cfg, workers)
		for i := range tr.frames {
			ref.Packet(epoch(i), tr.frames[i])
		}
		ref.Finish()
		want := ref.Result().Summary()

		for _, cut := range []int{0, 1, 2, 50, len(tr.frames) / 2, len(tr.frames)} {
			eng := newEngine(cfg, workers)
			for i := 0; i < cut; i++ {
				eng.Packet(epoch(i), tr.frames[i])
			}
			ck := bytes.Clone(checkpointBytes(t, eng))
			eng.Finish()
			restored, err := RestoreAnalyzer(bytes.NewReader(ck), cfg)
			if err != nil {
				t.Fatalf("workers=%d cut=%d: restore: %v", workers, cut, err)
			}
			if again := checkpointBytes(t, restored); !bytes.Equal(again, ck) {
				t.Errorf("workers=%d cut=%d: restored engine re-encodes differently (%d vs %d bytes)", workers, cut, len(again), len(ck))
			}
			for i := cut; i < len(tr.frames); i++ {
				restored.Packet(epoch(i), tr.frames[i])
			}
			restored.Finish()
			if got := restored.Result().Summary(); !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d cut=%d: resumed summary differs:\n got %+v\nwant %+v", workers, cut, got, want)
			}
		}
	}
}

// TestCheckpointPrefixesRejected: (iv) every proper prefix of a small
// engine's full and delta payloads — resealed with a valid CRC, so the
// trailer check cannot do the rejecting — fails in RestoreAnalyzer or
// ApplyDelta with an error: never a panic, never a usable engine.
func TestCheckpointPrefixesRejected(t *testing.T) {
	tr, opts := seededTrace(t, 1)
	cfg := Config{ZoomNetworks: []netip.Prefix{opts.ZoomNet}, CampusNetworks: []netip.Prefix{opts.CampusNet}}
	base := func() Engine {
		eng := NewAnalyzer(cfg)
		for i := 0; i < 60; i++ {
			eng.Packet(tr.at[i], tr.frames[i])
		}
		return eng
	}
	eng := base()
	full := bytes.Clone(checkpointBytes(t, eng))
	for i := 60; i < 90; i++ {
		eng.Packet(tr.at[i], tr.frames[i])
	}
	var delta bytes.Buffer
	if err := eng.CheckpointDelta(&delta); err != nil {
		t.Fatal(err)
	}
	eng.Finish()

	reseal := func(rec []byte, n int) []byte {
		b := bytes.Clone(rec[:n])
		return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
	}
	const hdr = len(checkpointMagic) + 2
	for n := hdr; n < len(full)-4; n++ {
		if got, err := RestoreAnalyzer(bytes.NewReader(reseal(full, n)), cfg); err == nil || got != nil {
			t.Fatalf("full record cut to %d/%d bytes: restore = (%v, %v), want an error and no engine", n, len(full)-4, got, err)
		}
	}
	for n := hdr; n < delta.Len()-4; n++ {
		target := base()
		if err := target.Checkpoint(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := target.ApplyDelta(bytes.NewReader(reseal(delta.Bytes(), n))); err == nil {
			t.Fatalf("delta record cut to %d/%d bytes applied without error", n, delta.Len()-4)
		}
		Discard(target)
	}
}

// TestRestoreTakesCapsFromConfig: caps are configuration, so a restored
// engine runs under the restoring process's, not under the ones the
// checkpointing process happened to have. A checkpoint taken at the
// small caps and restored under the large ones must install the large
// ones everywhere a cap lives — the copy matcher, the flow table, the
// cap gauges — and enforce them.
func TestRestoreTakesCapsFromConfig(t *testing.T) {
	small := Config{
		ZoomNetworks: []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")},
		PreFiltered:  true,
		MaxFlows:     10, MaxStreams: 10,
	}
	rng := rand.New(rand.NewSource(7))
	dst := netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, 7}), 8801)
	flood := func(a *Analyzer, from, n int) {
		for i := from; i < from+n; i++ {
			a.Packet(layerT0.Add(time.Duration(i)*time.Millisecond), floodFrame(rng, dst))
		}
	}
	a := NewAnalyzer(small)
	flood(a, 0, 40)
	if got := a.Flows.Totals().Flows; got != small.MaxFlows {
		t.Fatalf("capped run holds %d flows, want the cap %d", got, small.MaxFlows)
	}
	rejected := a.Flows.Evictions().RejectedFlowPackets
	ck := bytes.Clone(checkpointBytes(t, a))

	large := small
	large.MaxFlows, large.MaxStreams = 1000, 1000
	large.Obs = obs.NewRegistry()
	eng, err := RestoreAnalyzer(bytes.NewReader(ck), large)
	if err != nil {
		t.Fatal(err)
	}
	r := eng.(*Analyzer)
	if got, want := r.Copies.MaxPending, 256*large.MaxStreams; got != want {
		t.Errorf("restored Copies.MaxPending = %d, want %d from the restoring config", got, want)
	}
	flood(r, 40, 40)
	if got := r.Flows.Totals().Flows; got != small.MaxFlows+40 {
		t.Errorf("restored run holds %d flows after 40 new ones, want %d", got, small.MaxFlows+40)
	}
	if got := r.Flows.Evictions().RejectedFlowPackets; got != rejected {
		t.Errorf("restored flow table rejected %d more packets under a cap of %d", got-rejected, large.MaxFlows)
	}
	if got := r.Dedup.Len(); got != small.MaxFlows+40 {
		t.Errorf("restored detector holds %d records, want one per admitted stream, %d", got, small.MaxFlows+40)
	}
	r.Finish()
	out := promDump(t, large.Obs)
	for _, want := range []string{
		`zoomlens_state_cap{table="flows"} 1000`,
		`zoomlens_state_cap{table="streams"} 1000`,
		`zoomlens_state_cap{table="copy_pending"} 256000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// No setting caps the archive or the dedup records: no cap series.
	for _, table := range []string{"dedup_streams", "finished"} {
		if series := `zoomlens_state_cap{table="` + table + `"}`; strings.Contains(out, series) {
			t.Errorf("exposition has %s, a cap no setting can change", series)
		}
		if series := `zoomlens_state_occupancy{table="` + table + `"}`; !strings.Contains(out, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
}

// TestFreshCheckpointCarriesNoConfiguration: the full checkpoint of an
// engine that has seen no packet holds no trace of the caps, the TTL or
// the shed switch it was built with. (The worker count and the feature
// window are the record's on purpose and held fixed.)
func TestFreshCheckpointCarriesNoConfiguration(t *testing.T) {
	nets := []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")}
	for _, workers := range []int{1, 2} {
		record := func(cfg Config) []byte {
			cfg.ZoomNetworks, cfg.FeatureWindow = nets, time.Second
			eng := newEngine(cfg, workers)
			defer Discard(eng)
			return bytes.Clone(checkpointBytes(t, eng))
		}
		want := record(Config{})
		for _, cfg := range []Config{
			{MaxFlows: 10},
			{MaxStreams: 10},
			{FlowTTL: 500 * time.Millisecond},
			{Shed: true},
			{MaxFlows: 1000, MaxStreams: 1000, FlowTTL: time.Minute, Shed: true},
		} {
			if got := record(cfg); !bytes.Equal(got, want) {
				t.Errorf("workers=%d: checkpoint of a packet-less engine under %+v differs from the unconfigured one's (%d vs %d bytes)", workers, cfg, len(got), len(want))
			}
		}
	}
}
