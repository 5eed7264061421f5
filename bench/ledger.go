package main

// The per-layer cost ledger: a traced in-process pass that re-composes
// the sequential pipeline (core.Analyzer.Packet → observeUDP) from the
// layers' public functions. Records are processed in batches of 1024,
// layer by layer, with one span per layer per batch, so the timer costs
// two clock reads per 1024 packets. Every layer keeps its own state and
// sees its packets in capture order, so running the batch stage-major is
// equivalent to the analyzer's packet-major order; checkLedger proves it
// by comparing counts with core.Analyzer on the same file.

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"zoomlens/internal/capture"
	"zoomlens/internal/core"
	"zoomlens/internal/engine"
	"zoomlens/internal/features"
	"zoomlens/internal/flow"
	"zoomlens/internal/layers"
	"zoomlens/internal/meeting"
	"zoomlens/internal/metrics"
	"zoomlens/internal/pcap"
	"zoomlens/internal/predict"
	"zoomlens/internal/rtcproto"
	"zoomlens/internal/stun"
	"zoomlens/internal/tcprtt"
	"zoomlens/internal/zoom"
)

const (
	batchSize = 1024
	// maintainEvery is core's default eviction cadence (Config.MaintainEvery
	// when FlowTTL is set); a multiple of batchSize, so eviction falls on
	// the same packet as in the analyzer.
	maintainEvery = 4096
	featureWindow = time.Second
)

// span is one timed interval; Parent indexes the span that caused it
// (-1 for a batch, which is a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory; they are written out after the pass.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// selfTimes sums, per span name, duration minus the part child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// layerCounts are the counts taken at the layer boundaries.
type layerCounts struct {
	Read           int `json:"read"`
	ParseFailed    int `json:"parse_failed"`
	Classified     int `json:"classified"`
	Kept           int `json:"kept"`
	TCP            int `json:"tcp"`
	UDPKept        int `json:"udp_kept"`
	STUN           int `json:"stun"`
	Decoded        int `json:"decoded"`
	Undecoded      int `json:"undecoded"`
	Media          int `json:"media"`
	NewStreams     int `json:"new_streams"`
	EvictedFlows   int `json:"evicted_flows"`
	EvictedStreams int `json:"evicted_streams"`
	FeatureRows    int `json:"feature_rows"`
	Predicted      int `json:"predicted"`
}

// ledger holds one instance of every layer plus the batch scratch.
type ledger struct {
	tr       tracer
	n        layerCounts
	zoomNets []netip.Prefix
	ttl      time.Duration

	parser   layers.Parser
	filter   *capture.Filter
	protos   []rtcproto.Plugin
	flows    *flow.Table
	dedup    *meeting.Dedup
	copies   *metrics.CopyMatcher
	streams  map[flow.MediaStreamID]*metrics.StreamMetrics
	finished []*metrics.StreamMetrics
	tcp      map[netip.AddrPort]*tcprtt.Tracker
	tcpSeen  map[netip.AddrPort]time.Time
	feats    *features.Windower
	rows     []features.Row

	// Batch scratch; the frames themselves live in the batchReader.
	at      []time.Time
	frame   [][]byte
	pkt     [batchSize]layers.Packet
	mo      [batchSize]rtcproto.MediaObs
	ft      [batchSize]layers.FiveTuple
	key     [batchSize]zoom.StreamKey
	unified [batchSize]meeting.UnifiedID
	// Index lists of the packets that survive each stage.
	parsed, tcpIdx, udpIdx, decoded, media []int
}

func newLedger(ttl time.Duration) *ledger {
	protos := rtcproto.DefaultSet()
	nets := zoomNetworks()
	return &ledger{
		zoomNets: nets,
		ttl:      ttl,
		filter:   capture.NewFilter(capture.Config{ZoomNetworks: nets, GenericRTC: rtcproto.HasNonZoom(protos)}),
		protos:   protos,
		flows:    flow.NewTable(),
		dedup:    meeting.NewDedup(),
		copies:   metrics.NewCopyMatcher(),
		streams:  make(map[flow.MediaStreamID]*metrics.StreamMetrics),
		tcp:      make(map[netip.AddrPort]*tcprtt.Tracker),
		tcpSeen:  make(map[netip.AddrPort]time.Time),
		feats:    features.NewWindower(featureWindow),
	}
}

// run traces one pass over the capture at path. Two streams read the
// file: the timed one only iterates (exactly what the program's read loop
// costs), the untimed one loads the same records for the layers below.
func (l *ledger) run(path string) error {
	timed, err := engine.Open(path)
	if err != nil {
		return err
	}
	defer timed.Close()
	load, err := openBatches(path)
	if err != nil {
		return err
	}
	defer load.src.Close()

	l.tr.t0 = time.Now()
	var rec pcap.Record
	for more := true; more; {
		root := l.tr.begin("batch", -1)
		s := l.tr.begin("pcap.read", root)
		n := 0
		for ; n < batchSize; n++ {
			if err := timed.NextInto(&rec); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				return err
			}
		}
		l.tr.end(s)
		s = l.tr.begin("harness.load", root)
		loaded, err := load.next()
		l.tr.end(s)
		if err != nil {
			return err
		}
		if loaded != n {
			return fmt.Errorf("the two readers disagree: %d vs %d records in a batch", n, loaded)
		}
		more = n == batchSize
		if n > 0 {
			l.at, l.frame = load.at[:n], load.frame[:n]
			l.n.Read += n
			l.batch(root, n)
		}
		l.tr.end(root)
	}
	l.finish()
	return nil
}

// batch runs n loaded records through every layer, in the analyzer's
// order, one layer at a time.
func (l *ledger) batch(root, n int) {
	s := l.tr.begin("layers.parse", root)
	l.parsed = l.parsed[:0]
	for i := 0; i < n; i++ {
		if err := l.parser.Parse(l.frame[i], &l.pkt[i]); err != nil {
			l.n.ParseFailed++
			continue
		}
		l.parsed = append(l.parsed, i)
	}
	l.tr.end(s)

	s = l.tr.begin("capture.classify", root)
	l.tcpIdx, l.udpIdx = l.tcpIdx[:0], l.udpIdx[:0]
	for _, i := range l.parsed {
		l.n.Classified++
		if !l.filter.Classify(&l.pkt[i], l.at[i]).Keep() {
			continue
		}
		l.n.Kept++
		switch {
		case l.pkt[i].HasTCP:
			l.tcpIdx = append(l.tcpIdx, i)
		case l.pkt[i].HasUDP:
			l.udpIdx = append(l.udpIdx, i)
		}
	}
	l.tr.end(s)

	s = l.tr.begin("tcprtt.observe", root)
	for _, i := range l.tcpIdx {
		l.n.TCP++
		l.observeTCP(l.at[i], &l.pkt[i])
	}
	l.tr.end(s)

	s = l.tr.begin("rtcproto.decode", root)
	l.decoded = l.decoded[:0]
	for _, i := range l.udpIdx {
		payload := l.pkt[i].Payload
		if stun.Is(payload) {
			l.n.STUN++
			continue
		}
		l.n.UDPKept++
		ok := false
		for _, p := range l.protos {
			if !p.Probe(payload) {
				continue
			}
			var err error
			l.mo[i], err = p.Decode(payload)
			ok = err == nil
			break
		}
		if !ok {
			l.n.Undecoded++
			continue
		}
		l.n.Decoded++
		l.decoded = append(l.decoded, i)
	}
	l.tr.end(s)

	s = l.tr.begin("flow.observe", root)
	l.media = l.media[:0]
	var rec flow.Record
	for _, i := range l.decoded {
		ft, ok := l.pkt[i].FiveTuple()
		if !ok {
			continue
		}
		zp := &l.mo[i].Pkt
		rec = flow.Record{
			Time: l.at[i], Flow: ft, WireLen: len(l.frame[i]),
			UDPPayloadLen: len(l.pkt[i].Payload), Proto: uint8(l.mo[i].Proto), Z: *zp,
		}
		st := l.flows.Observe(&rec)
		if !zp.IsMedia() || st == nil {
			continue
		}
		if st.Packets == 1 {
			l.n.NewStreams++
		}
		l.ft[i] = ft
		l.key[i] = zoom.StreamKey{SSRC: zp.RTP.SSRC, Type: zp.Media.Type, Proto: uint8(l.mo[i].Proto)}
		l.media = append(l.media, i)
	}
	l.n.Media += len(l.media)
	l.tr.end(s)

	s = l.tr.begin("meeting.dedup", root)
	for _, i := range l.media {
		r := &l.mo[i].Pkt.RTP
		l.unified[i] = l.dedup.Observe(meeting.StreamObs{
			Time: l.at[i], Flow: l.ft[i], Key: l.key[i], Seq: r.SequenceNumber, TS: r.Timestamp,
		})
	}
	l.tr.end(s)

	s = l.tr.begin("metrics.copymatch", root)
	for _, i := range l.media {
		r := &l.mo[i].Pkt.RTP
		l.copies.Observe(l.unified[i], l.ft[i], r.PayloadType, r.SequenceNumber, r.Timestamp, l.at[i])
	}
	l.tr.end(s)

	s = l.tr.begin("features.observe", root)
	for _, i := range l.media {
		r := &l.mo[i].Pkt.RTP
		l.feats.Observe(features.Obs{
			At: l.at[i], Flow: l.ft[i], Key: l.key[i],
			WireLen: len(l.frame[i]), PayloadLen: len(l.pkt[i].Payload),
			PT: r.PayloadType, RTPSeq: r.SequenceNumber, RTPTS: r.Timestamp,
		})
	}
	l.rows = append(l.rows, l.feats.Drain()...)
	l.tr.end(s)

	s = l.tr.begin("metrics.observe", root)
	for _, i := range l.media {
		zp := &l.mo[i].Pkt
		id := flow.MediaStreamID{Flow: l.ft[i], Key: l.key[i]}
		sm := l.streams[id]
		if sm == nil {
			sm = metrics.NewStreamMetrics(zp.Media.Type)
			l.streams[id] = sm
		}
		sm.Observe(l.at[i], len(l.frame[i]), &zp.Media, &zp.RTP)
		sm.MarkDirty()
	}
	l.tr.end(s)

	if l.ttl > 0 && l.n.Read%maintainEvery == 0 {
		l.evictIdle(root, l.at[n-1].Add(-l.ttl))
	}
}

// observeTCP mirrors core.Analyzer.observeTCP.
func (l *ledger) observeTCP(at time.Time, pkt *layers.Packet) {
	fromClient := l.isZoomAddr(pkt.DstAddr()) && !l.isZoomAddr(pkt.SrcAddr())
	var client netip.AddrPort
	if fromClient {
		client = netip.AddrPortFrom(pkt.SrcAddr(), pkt.TCP.SrcPort)
	} else {
		client = netip.AddrPortFrom(pkt.DstAddr(), pkt.TCP.DstPort)
	}
	tr := l.tcp[client]
	if tr == nil {
		tr = tcprtt.NewTracker()
		l.tcp[client] = tr
	}
	l.tcpSeen[client] = at
	tr.Observe(at, fromClient, &pkt.TCP, len(pkt.Payload))
}

func (l *ledger) isZoomAddr(a netip.Addr) bool {
	for _, p := range l.zoomNets {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// evictIdle mirrors core.Analyzer.EvictIdle (Compact, then the flow
// table, the duplicate detector and the TCP trackers), one span each.
func (l *ledger) evictIdle(root int, cutoff time.Time) {
	s := l.tr.begin("metrics.evict", root)
	archived := 0
	for id, sm := range l.streams {
		if st, ok := l.flows.Stream(id); ok && st.LastSeen.After(cutoff) {
			continue
		}
		sm.Finish()
		l.finished = append(l.finished, sm)
		delete(l.streams, id)
		archived++
	}
	l.tr.end(s)

	s = l.tr.begin("flow.evict", root)
	flows, streams := l.flows.EvictIdle(cutoff)
	l.n.EvictedFlows += flows
	l.n.EvictedStreams += streams
	l.tr.end(s)

	s = l.tr.begin("meeting.evict", root)
	if archived > 0 {
		l.dedup.Evict(cutoff) // Compact's call
	}
	l.dedup.Evict(cutoff) // EvictIdle's own
	l.tr.end(s)

	s = l.tr.begin("tcprtt.evict", root)
	for client, seen := range l.tcpSeen {
		if !seen.After(cutoff) {
			delete(l.tcp, client)
			delete(l.tcpSeen, client)
		}
	}
	l.tr.end(s)
}

// finish mirrors Analyzer.Finish, then runs the ledger-only inference
// layer: a model trained on the pass's own feature rows classifies every
// video row.
func (l *ledger) finish() {
	s := l.tr.begin("metrics.finish", -1)
	for _, sm := range l.streams {
		sm.Finish()
	}
	l.tr.end(s)

	s = l.tr.begin("features.finish", -1)
	l.feats.FinishFlush()
	l.rows = append(l.rows, l.feats.Drain()...)
	l.tr.end(s)
	l.n.FeatureRows = len(l.rows)

	var video []features.Row
	for _, r := range l.rows {
		if r.ID.Key.Type == zoom.TypeVideo {
			video = append(video, r)
		}
	}
	model := trainModel(video)
	if model == nil {
		return
	}
	s = l.tr.begin("predict.predict", -1)
	for i := range video {
		model.Predict(&video[i])
	}
	l.tr.end(s)
	l.n.Predicted = len(video)
}

// trainModel fits the softmax predictor on up to 2000 rows labelled by
// delivered frame rate (the header-derived oracle column): what the row
// content is does not change what one prediction costs.
func trainModel(rows []features.Row) *predict.Model {
	if len(rows) > 2000 {
		rows = rows[:2000]
	}
	labeled := make([]features.LabeledRow, len(rows))
	for i, r := range rows {
		label := features.LabelBad
		switch fps := float64(r.FrameMarks) / r.Window.Seconds(); {
		case fps >= 20:
			label = features.LabelGood
		case fps >= 10:
			label = features.LabelDegraded
		}
		labeled[i] = features.LabeledRow{Row: r, Label: label}
	}
	m, err := predict.Train(labeled, predict.TrainOptions{Epochs: 30})
	if err != nil {
		return nil // no video rows in this capture
	}
	return m
}

// checkLedger compares the re-composition's counts with core.Analyzer's
// Summary of the same file, so the ledger cannot drift from the pipeline
// it claims to decompose.
func (l *ledger) checkLedger(a *core.Analyzer) error {
	s := a.Summary()
	var decoded uint64
	for _, v := range s.ProtoDecoded {
		decoded += v
	}
	ft := l.flows.Totals()
	ev := l.flows.Evictions()
	got := [...]uint64{
		uint64(l.n.Read), uint64(l.n.Classified - l.n.Kept), uint64(l.n.TCP), uint64(l.n.STUN), uint64(l.n.Decoded),
		uint64(l.n.ParseFailed + l.n.Undecoded), uint64(ft.Flows), uint64(ft.Streams), ev.EvictedFlows, ev.EvictedStreams,
		uint64(len(l.streams) + len(l.finished)),
	}
	want := [...]uint64{
		s.Packets, a.DroppedByFilter, s.TCPPackets, s.STUNPackets, decoded,
		s.Undecodable, uint64(s.Flows), uint64(s.Streams), s.EvictedFlows, s.EvictedStreams,
		uint64(len(a.StreamMetrics) + len(a.Finished)),
	}
	names := [...]string{"packets", "dropped_by_filter", "tcp", "stun", "decoded", "undecodable", "flows", "streams", "evicted_flows", "evicted_streams", "metric_engines"}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("ledger %s = %d, core.Analyzer = %d", names[i], got[i], want[i])
		}
	}
	return nil
}
