package core

// Checkpoint/restore and windowed rotation.
//
// A checkpoint is the engine's complete mutable state behind the
// statecodec boundary: resume a run from it and the final report is
// byte-identical to a run that was never interrupted, at any worker
// count. The file format is
//
//	"ZLCP" | file version (u8) | kind (u8) | payload | CRC32-C (u32 LE)
//
// and both kinds share one payload layout:
//
//	payload version (u8) | shard count | [delta: base packet count]
//	| front end (head counters, sequence number, capture filter)
//	| reconciliation state (Dedup, CopyMatcher, feature windower)
//	| one shard payload per shard
//
// A full record (kind 0) carries every layer whole and can bootstrap an
// engine; a delta record (kind 1) carries, per layer, only what changed
// since the previous checkpoint encode (see delta.go) and must be
// applied to an engine sitting exactly at its base. A sequential engine
// writes one shard payload, a parallel one N. Shard observation logs are
// never serialized: the encode reconciles first, so the logs are empty
// and the reconciliation state reflects every packet routed.
//
// Each format has exactly one version; anything else is rejected with
// the version in the error. Restore never yields a partial engine: any
// decode error (truncated or torn file, hostile count, unknown version)
// returns an error and the half-built engine is discarded.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net/netip"
	"slices"
	"time"

	"zoomlens/internal/features"
	"zoomlens/internal/flow"
	"zoomlens/internal/layers"
	"zoomlens/internal/metrics"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/tcprtt"
	"zoomlens/internal/zoom"
)

const (
	checkpointMagic = "ZLCP"
	// checkpointFileVersion: header as above, mandatory CRC trailer over
	// all preceding bytes, so a torn or bit-flipped file is detected
	// before any decode work.
	checkpointFileVersion = 1

	engineKindFull  = 0
	engineKindDelta = 1

	// stateVersion covers the payload layout of both kinds, shard
	// payloads included.
	stateVersion = 1

	// maxCheckpointWorkers bounds the shard count a hostile checkpoint
	// can demand (each shard costs a goroutine and its tables).
	maxCheckpointWorkers = 4096
)

// crcTable is the Castagnoli polynomial used by the file trailer.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func writeCheckpointHeader(w *statecodec.Writer, kind uint8) {
	for i := 0; i < len(checkpointMagic); i++ {
		w.U8(checkpointMagic[i])
	}
	w.U8(checkpointFileVersion)
	w.U8(kind)
}

// sealCheckpoint appends the CRC trailer to the encoded record and
// writes the whole file in one Write.
func sealCheckpoint(w io.Writer, enc *statecodec.Writer) error {
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], crc32.Checksum(enc.Bytes(), crcTable))
	for _, b := range tr {
		enc.U8(b)
	}
	_, err := w.Write(enc.Bytes())
	return err
}

// openCheckpoint slurps a checkpoint stream, validates its magic, file
// version and CRC trailer, checks that it is of the wanted kind and
// payload version, and returns the shard count with a reader positioned
// after it.
func openCheckpoint(rd io.Reader, wantKind uint8) (shards int, r *statecodec.Reader, err error) {
	var data []byte
	if l, ok := rd.(interface{ Len() int }); ok {
		// bytes.Reader/bytes.Buffer style sources announce their size;
		// read into one right-sized buffer instead of letting io.ReadAll
		// double through the checkpoint (restores are on the recovery
		// path, where a 100 ms budget applies).
		data = make([]byte, l.Len())
		_, err = io.ReadFull(rd, data)
	} else {
		data, err = io.ReadAll(rd)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	const hdr = len(checkpointMagic) + 2
	if len(data) < hdr || string(data[:len(checkpointMagic)]) != checkpointMagic {
		return 0, nil, fmt.Errorf("%w: not a checkpoint (short file or bad magic)", statecodec.ErrCorrupt)
	}
	if v := data[len(checkpointMagic)]; v != checkpointFileVersion {
		return 0, nil, fmt.Errorf("%w: checkpoint file version %d (supported: %d)", statecodec.ErrCorrupt, v, checkpointFileVersion)
	}
	if len(data) < hdr+4 {
		return 0, nil, fmt.Errorf("%w: checkpoint too short for CRC trailer", statecodec.ErrCorrupt)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(trailer)
	if got := crc32.Checksum(body, crcTable); got != want {
		return 0, nil, fmt.Errorf("%w: checkpoint CRC mismatch (file %08x, computed %08x)", statecodec.ErrCorrupt, want, got)
	}
	switch kind := body[hdr-1]; {
	case kind == wantKind:
	case kind == engineKindDelta:
		return 0, nil, fmt.Errorf("%w: delta record cannot bootstrap an engine (apply it to a restored checkpoint)", statecodec.ErrCorrupt)
	case kind == engineKindFull:
		return 0, nil, fmt.Errorf("%w: full checkpoint offered as a delta record", statecodec.ErrCorrupt)
	default:
		return 0, nil, fmt.Errorf("%w: unknown engine kind %d", statecodec.ErrCorrupt, kind)
	}
	r = statecodec.NewReader(body[hdr:])
	if v := r.U8(); r.Err() == nil && v != stateVersion {
		return 0, nil, fmt.Errorf("%w: checkpoint state version %d (supported: %d)", statecodec.ErrCorrupt, v, stateVersion)
	}
	shards = r.Int()
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	if shards < 1 || shards > maxCheckpointWorkers {
		return 0, nil, fmt.Errorf("%w: checkpoint worker count %d out of range", statecodec.ErrCorrupt, shards)
	}
	return shards, r, nil
}

// encode writes one checkpoint record — full, or delta when the chain is
// armed — and re-anchors the chain at the state just written.
func (p *pipeline) encode(w io.Writer, delta bool) error {
	p.reconcile()
	var enc statecodec.Writer
	if delta {
		if !p.deltaReady() {
			return ErrDeltaUnavailable
		}
		enc.Grow(1 << 16)
		writeCheckpointHeader(&enc, engineKindDelta)
	} else {
		// Reserve once instead of doubling through megabytes (streams
		// dominate at roughly 800 bytes each on production-shaped state).
		hint := 4096
		for _, sh := range p.shards {
			hint += 1024 * (len(sh.StreamMetrics) + len(sh.Finished))
		}
		enc.Grow(hint)
		writeCheckpointHeader(&enc, engineKindFull)
	}
	enc.U8(stateVersion)
	enc.Int(len(p.shards))
	if delta {
		enc.U64(p.ckPackets)
	}
	enc.Bool(p.finished)
	p.frontEnd.state(&enc)
	if delta {
		p.Dedup.StateDelta(&enc)
		p.Copies.StateDelta(&enc)
	} else {
		p.Dedup.State(&enc)
		p.Copies.State(&enc)
	}
	// The feature windower has no dirty tracking (its live state is a
	// handful of open accumulators, bounded by idle eviction), so like the
	// capture filter it rides whole in both kinds, pending rows included:
	// a restored run emits exactly the rows an uninterrupted one would.
	enc.Bool(p.feats != nil)
	if p.feats != nil {
		p.feats.State(&enc)
	}
	for _, sh := range p.shards {
		if delta {
			sh.stateDelta(&enc)
		} else {
			sh.state(&enc)
		}
	}
	if err := sealCheckpoint(w, &enc); err != nil {
		return err
	}
	p.markCheckpointed()
	return nil
}

// decode is encode's inverse, onto an engine with the record's shard
// count: freshly built for a full record, sitting at the record's base
// for a delta. On error the engine may be partially mutated and must be
// discarded.
func (p *pipeline) decode(r *statecodec.Reader, delta bool) error {
	if delta {
		if base := r.U64(); r.Err() == nil && base != p.Packets {
			return fmt.Errorf("%w: delta base %d packets does not match engine at %d packets", statecodec.ErrCorrupt, base, p.Packets)
		}
	}
	p.finished = r.Bool()
	if err := p.frontEnd.restore(r); err != nil {
		return err
	}
	var err error
	if delta {
		if err = p.Dedup.ApplyDelta(r); err == nil {
			err = p.Copies.ApplyDelta(r)
		}
	} else {
		if err = p.Dedup.Restore(r); err == nil {
			err = p.Copies.Restore(r)
		}
	}
	if err != nil {
		return err
	}
	// The record's feature layer wins over the restoring process's
	// configuration: presence, window duration, and all windower state.
	p.feats = nil
	if r.Bool() {
		if p.feats = features.RestoreWindower(r); p.feats == nil {
			return r.Err()
		}
	}
	for _, sh := range p.shards {
		if delta {
			err = sh.applyDelta(r)
		} else {
			err = sh.restore(r)
		}
		if err != nil {
			return err
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if n := r.Remaining(); n > 0 {
		return fmt.Errorf("%w: %d trailing bytes after checkpoint payload", statecodec.ErrCorrupt, n)
	}
	p.markCheckpointed()
	return nil
}

// Checkpoint serializes the engine's complete mutable state to w in one
// Write, so RestoreAnalyzer can resume the run with byte-identical
// results. Call it between Packet calls (a parallel engine parks its
// shards and reconciles first). A successful encode also resets delta
// tracking: the next CheckpointDelta describes mutations relative to
// this snapshot.
func (p *pipeline) Checkpoint(w io.Writer) error {
	defer p.cfg.trace("checkpoint")()
	return p.encode(w, false)
}

// RestoreAnalyzer rebuilds an engine from a full checkpoint. The worker
// count comes from the checkpoint, not from cfg: a checkpoint taken at N
// workers restores to N workers (required for the shard-partitioned
// state to line up) — an *Analyzer for one, a *ParallelAnalyzer for
// more. cfg supplies everything that is configuration rather than state
// — networks, caps, quarantine, obs — and should match the original
// run's for byte-identical resumption.
func RestoreAnalyzer(rd io.Reader, cfg Config) (Engine, error) {
	workers, r, err := openCheckpoint(rd, engineKindFull)
	if err != nil {
		return nil, err
	}
	// Each shard payload is at least its counters and table skeletons; a
	// worker count the remaining bytes cannot possibly cover is corrupt,
	// and rejecting it here avoids spinning up a large engine only to
	// tear it down on the first short read.
	if r.Remaining() < workers*16 {
		return nil, fmt.Errorf("%w: %d workers but only %d payload bytes", statecodec.ErrCorrupt, workers, r.Remaining())
	}
	pa := NewParallelAnalyzer(cfg, workers)
	if err := pa.decode(r, false); err != nil {
		Discard(pa)
		return nil, err
	}
	if workers == 1 {
		return pa.result, nil
	}
	return pa, nil
}

// Rotate closes the current report window: it detaches everything
// accumulated so far into a finished window analyzer (returned for
// rendering; for a parallel engine, the same deterministic merge Finish
// performs) and re-seeds the live state so the next window starts
// empty. Configuration, the capture filter's P2P table — an armed P2P
// flow keeps matching after rotation, exactly as it would mid-window —
// the sequence numbering and the feature windower (its windows live on
// the capture clock, not the report grid) persist across windows. now
// is the rotation boundary chosen by the caller; the window's own
// timestamps still come from its packets.
func (p *pipeline) Rotate(now time.Time) *Analyzer {
	defer p.cfg.trace("rotate")()
	p.reconcile()
	win := &pipeline{frontEnd: p.frontEnd, reconState: p.reconState, workers: 1}
	win.o, win.feats = nil, nil
	res := win.setInline(mergeShards(p.cfg, p.shards))
	win.Finish()

	p.ClusterHead = ClusterHead{}
	p.finished = false
	for _, sh := range p.shards {
		sh.shardState = newShardState(sh.lim)
		// The window took the cumulative eviction counts with it;
		// re-baseline the obs mirrors so the next window's deltas start
		// from zero.
		sh.so.resetMirrors()
	}
	feats := p.feats
	p.reconState = newReconState(p.cfg)
	p.feats = feats
	// Rotation starts a fresh state lineage: any checkpoint chain built
	// before it no longer describes this engine, so the next delta attempt
	// reports unavailable until a full checkpoint re-anchors the chain.
	p.chainArmed = false
	return res
}

// state encodes the shard's complete mutable state. Maps are written in
// sorted key order so identical state yields identical bytes.
func (sh *shard) state(w *statecodec.Writer) {
	sh.stateScalars(w)
	sh.Flows.State(w)

	ids := make([]flow.MediaStreamID, 0, len(sh.StreamMetrics))
	for id := range sh.StreamMetrics {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, flow.CompareStreamID)
	w.Int(len(ids))
	for _, id := range ids {
		encodeStreamID(w, id)
		sh.StreamMetrics[id].State(w)
	}

	clients := make([]netip.AddrPort, 0, len(sh.TCP))
	for c := range sh.TCP {
		clients = append(clients, c)
	}
	sortAddrPorts(clients)
	w.Int(len(clients))
	for _, c := range clients {
		w.AddrPort(c)
		sh.TCP[c].State(w)
		w.Time(sh.tcpSeen[c])
	}

	encodeFinished(w, sh.Finished)
}

// stateScalars and restoreScalars carry the shard's counters and
// maintenance clock; cheap, so full and delta records alike carry them
// whole.
func (sh *shard) stateScalars(w *statecodec.Writer) {
	w.U64(sh.ticks)
	w.U64(sh.compactEvery)
	w.Duration(sh.compactIdle)
	c := &sh.shardCounters
	w.U64(c.ZoomUDP)
	w.U64(c.TCPPackets)
	w.U64(c.STUNPackets)
	w.U64(c.STUNPortNonSTUN)
	w.Int(len(c.ProtoDecoded))
	for _, v := range c.ProtoDecoded {
		w.U64(v)
	}
	w.U64(c.ProtoUndecodable)
	w.U64(c.UDPKeptPackets)
	w.U64(c.UDPKeptBytes)
	w.U64(c.ShardPanics)
	w.U64(c.EvictedTCP)
	w.U64(c.RejectedTCPPackets)
	w.U64(c.FinishedDropped)
}

func (sh *shard) restoreScalars(r *statecodec.Reader) error {
	sh.ticks = r.U64()
	sh.compactEvery = r.U64()
	sh.compactIdle = r.Duration()
	c := &sh.shardCounters
	c.ZoomUDP = r.U64()
	c.TCPPackets = r.U64()
	c.STUNPackets = r.U64()
	c.STUNPortNonSTUN = r.U64()
	if np := r.Count(8); r.Err() == nil && np != len(c.ProtoDecoded) {
		r.Failf("core: shard proto counter count %d (want %d)", np, len(c.ProtoDecoded))
	}
	for i := range c.ProtoDecoded {
		c.ProtoDecoded[i] = r.U64()
	}
	c.ProtoUndecodable = r.U64()
	c.UDPKeptPackets = r.U64()
	c.UDPKeptBytes = r.U64()
	c.ShardPanics = r.U64()
	c.EvictedTCP = r.U64()
	c.RejectedTCPPackets = r.U64()
	c.FinishedDropped = r.U64()
	return r.Err()
}

func sortAddrPorts(aps []netip.AddrPort) {
	slices.SortFunc(aps, func(a, b netip.AddrPort) int {
		if c := a.Addr().Compare(b.Addr()); c != 0 {
			return c
		}
		return int(a.Port()) - int(b.Port())
	})
}

func encodeStreamID(w *statecodec.Writer, id flow.MediaStreamID) {
	id.Flow.EncodeTo(w)
	id.Key.EncodeTo(w)
}

func decodeStreamID(r *statecodec.Reader) flow.MediaStreamID {
	return flow.MediaStreamID{Flow: layers.DecodeFiveTuple(r), Key: zoom.DecodeStreamKey(r)}
}

func encodeFinished(w *statecodec.Writer, fs []FinishedStream) {
	w.Int(len(fs))
	for i := range fs {
		f := &fs[i]
		encodeStreamID(w, f.ID)
		w.Time(f.LastSeen)
		f.Metrics.State(w)
	}
}

// smSlab hands out stream metric engines from chunk-allocated slabs: one
// allocation per few thousand streams instead of one per stream.
// Restore-side GC pressure was the difference between meeting the
// recovery-path time budget and missing it. Chunking (rather than one
// slab sized by the declared count) keeps a hostile count from forcing a
// huge up-front allocation before the first element fails to decode.
type smSlab []metrics.StreamMetrics

func (s *smSlab) next(remaining int) *metrics.StreamMetrics {
	if len(*s) == 0 {
		*s = make([]metrics.StreamMetrics, min(remaining, 4096))
	}
	sm := &(*s)[0]
	*s = (*s)[1:]
	return sm
}

// decodeFinished appends a counted run of archived streams to dst.
func decodeFinished(r *statecodec.Reader, dst []FinishedStream, slab *smSlab) ([]FinishedStream, error) {
	n := r.Count(14)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		id := decodeStreamID(r)
		last := r.Time()
		sm := slab.next(n - i)
		if err := metrics.RestoreStreamMetricsInto(r, sm); err != nil {
			return dst, err
		}
		dst = append(dst, FinishedStream{ID: id, LastSeen: last, Metrics: sm})
	}
	return dst, r.Err()
}

// restore decodes a state payload into a freshly built shard, replacing
// all mutable state but keeping its limits and wiring.
func (sh *shard) restore(r *statecodec.Reader) error {
	if err := sh.restoreScalars(r); err != nil {
		return err
	}
	if err := sh.Flows.Restore(r); err != nil {
		return err
	}
	var slab smSlab
	nm := r.Count(12)
	sh.StreamMetrics = make(map[flow.MediaStreamID]*metrics.StreamMetrics, nm)
	for i := 0; i < nm; i++ {
		id := decodeStreamID(r)
		sm := slab.next(nm - i)
		if err := metrics.RestoreStreamMetricsInto(r, sm); err != nil {
			return err
		}
		if _, dup := sh.StreamMetrics[id]; dup {
			r.Failf("core: shard duplicate stream %v/%v", id.Flow, id.Key)
			return r.Err()
		}
		sh.StreamMetrics[id] = sm
	}

	nt := r.Count(4)
	sh.TCP = make(map[netip.AddrPort]*tcprtt.Tracker, nt)
	sh.tcpSeen = make(map[netip.AddrPort]time.Time, nt)
	for i := 0; i < nt; i++ {
		c := r.AddrPort()
		tr := tcprtt.NewTracker()
		if err := tr.Restore(r); err != nil {
			return err
		}
		if _, dup := sh.TCP[c]; dup {
			r.Failf("core: shard duplicate TCP tracker %v", c)
			return r.Err()
		}
		sh.TCP[c] = tr
		sh.tcpSeen[c] = r.Time()
	}

	var err error
	sh.Finished, err = decodeFinished(r, nil, &slab)
	return err
}
