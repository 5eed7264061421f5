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
// Every layer lists its fields once, in a walk over a statecodec.Codec
// that encodes or decodes depending on how the codec was built; the
// payload is the engine's walk (pipeline.code). A delta record (kind 1)
// carries, per layer, only what changed since the previous checkpoint
// encode (see delta.go) and must be applied to an engine sitting
// exactly at its base; a full record (kind 0) is the same walk with
// every record dirty, no tombstones and baselines at 0, so it applies
// to a freshly built engine and can bootstrap one. A sequential engine
// writes one shard payload, a parallel one N. Shard observation logs are
// never serialized: the encode quiesces first, so the logs are empty
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
	"time"

	"zoomlens/internal/features"
	"zoomlens/internal/flow"
	"zoomlens/internal/metrics"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/tcprtt"
)

const (
	checkpointMagic = "ZLCP"
	// checkpointFileVersion: header as above, mandatory CRC trailer over
	// all preceding bytes, so a torn or bit-flipped file is detected
	// before any decode work.
	checkpointFileVersion = 1

	engineKindFull  = 0
	engineKindDelta = 1

	// stateVersion covers the payload layout of both kinds and every
	// layer's field list: no layer has a version of its own, so changing
	// any walk means bumping this.
	stateVersion = 15

	// maxCheckpointWorkers bounds the shard count a hostile checkpoint
	// can demand (each shard costs a goroutine and its tables).
	maxCheckpointWorkers = 4096
)

// crcTable is the Castagnoli polynomial used by the file trailer (the
// encoding side's is statecodec.Writer's running sum).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func writeCheckpointHeader(w *statecodec.Writer, kind uint8) {
	for i := 0; i < len(checkpointMagic); i++ {
		w.U8(checkpointMagic[i])
	}
	w.U8(checkpointFileVersion)
	w.U8(kind)
}

// sealCheckpoint appends the CRC trailer: the Writer's running sum over
// the record, which began at the header.
func sealCheckpoint(enc *statecodec.Writer) {
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], enc.Sum())
	for _, b := range tr {
		enc.U8(b)
	}
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
// armed — and re-anchors the chain at the state just written. Handed a
// *statecodec.Writer it writes the record through it: appended in memory,
// or streamed to the Writer's sink (the driver's chain owns one). Any
// other writer gets the record in Writes of at most statecodec.SpillSize
// through a Writer made for the call. Either way no buffer the size of
// the record exists, and the engine keeps nothing. A record the sink
// refuses is not an anchor: the error is returned and the chain stays
// where it was.
func (p *pipeline) encode(w io.Writer, delta bool) error {
	p.quiesce()
	if delta && !p.deltaReady() {
		return ErrDeltaUnavailable
	}
	enc, direct := w.(*statecodec.Writer)
	if !direct {
		enc = statecodec.NewWriter(w)
	}
	kind := uint8(engineKindFull)
	if delta {
		kind = engineKindDelta
	}
	enc.StartSum()
	writeCheckpointHeader(enc, kind)
	enc.U8(stateVersion)
	enc.Int(len(p.shards))
	if delta {
		enc.U64(p.ckPackets)
	}
	p.code(statecodec.NewEncoder(enc, !delta))
	sealCheckpoint(enc)
	if err := enc.Flush(); err != nil {
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
	p.code(statecodec.NewDecoder(r))
	if err := r.Err(); err != nil {
		return err
	}
	if n := r.Remaining(); n > 0 {
		return fmt.Errorf("%w: %d trailing bytes after checkpoint payload", statecodec.ErrCorrupt, n)
	}
	p.markCheckpointed() // a failed check's engine is discarded all the same
	return p.checkShards()
}

// code is the engine's one field walk, shared by both record kinds and
// both directions: front end, reconciliation state, then one shard
// payload per shard.
func (p *pipeline) code(c *statecodec.Codec) {
	c.Bool(&p.finished)
	p.frontEnd.code(c)
	p.Dedup.Code(c)
	p.Copies.Code(c)
	// The record's feature layer wins over the restoring process's
	// configuration: presence, window duration, and all windower state,
	// pending rows included, so a restored run emits exactly the rows an
	// uninterrupted one would.
	if statecodec.Ptr(c, &p.feats, func() *features.Windower { return features.NewWindower(0) }) {
		p.feats.Code(c)
	}
	for _, sh := range p.shards {
		sh.code(c)
	}
}

// Checkpoint serializes the engine's complete mutable state to w, as a
// stream of bounded Writes (through it when w is a *statecodec.Writer;
// see encode), so
// RestoreAnalyzer can resume the run with byte-identical results. Call it
// between Packet calls (a parallel engine quiesces first). A successful
// encode also resets delta tracking: the next CheckpointDelta describes
// mutations relative to this snapshot.
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
	p.quiesce()
	win := &pipeline{frontEnd: p.frontEnd, reconState: p.reconState, workers: 1}
	win.o, win.feats = noObs, nil
	res := win.setInline(mergeShards(p.cfg, p.shards))
	win.Finish()

	// The window took the tallies with it, and the quiesce pushed them to
	// the live series: the next window's feeds start from zero.
	p.ClusterHead = ClusterHead{}
	p.finished = false
	p.o.rebase()
	for _, sh := range p.shards {
		sh.shardState = newShardState(sh.lim)
		sh.so.rebase()
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

// code walks the shard's state: counters whole (cheap), the flow table's
// own walk with each stream's metric engine inside its record, the TCP
// trackers' change log (tombstones, then records), and the archive's
// tail. On a decoding error the shard may be partially mutated.
func (sh *shard) code(c *statecodec.Codec) {
	c.U64(&sh.TCPPackets)
	c.U64(&sh.STUNPackets)
	c.U64(&sh.STUNPortNonSTUN)
	np := len(sh.ProtoDecoded)
	if c.Int(&np); np != len(sh.ProtoDecoded) {
		c.Failf("core: shard proto counter count %d (want %d)", np, len(sh.ProtoDecoded))
	}
	for i := range sh.ProtoDecoded {
		c.U64(&sh.ProtoDecoded[i])
	}
	c.U64(&sh.ProtoUndecodable)
	c.U64(&sh.UDPKeptPackets)
	c.U64(&sh.UDPKeptBytes)
	c.U64(&sh.ShardPanics)
	c.U64(&sh.EvictedTCP)
	c.U64(&sh.RejectedTCPPackets)
	c.U64(&sh.transportless)
	c.U64(&sh.mediaPackets)

	var slab statecodec.Slab[ownedEngine]
	sh.Flows.Code(c, func(st *flow.StreamStats, left int) { sh.codeEngine(c, st, &slab, left) })
	if !c.Encoding() && c.Err() == nil { // the registry lists the records' engines
		sh.StreamMetrics = make(map[flow.MediaStreamID]*metrics.StreamMetrics, sh.Flows.Totals().Streams)
		sh.Flows.EachStream(func(st *flow.StreamStats) { sh.StreamMetrics[st.ID] = st.Owner.(*streamOwner).sm })
	}

	statecodec.Tombstones(c, statecodec.AddrPortKey, &sh.tcpLog, func(client netip.AddrPort) { delete(sh.TCP, client) })
	statecodec.Map(c, statecodec.AddrPortKey, &sh.TCP, nil, &sh.tcpLog,
		func(_ netip.AddrPort, tr *tcprtt.Tracker) { tr.Code(c) })

	// The archive only appends, so the record carries the baseline length
	// and the appended tail (a full record: baseline 0, everything
	// appended). An archived stream is final, so its entry carries its
	// logs whole.
	base := sh.ckFinishedLen
	if c.Full() {
		base = 0
	}
	if c.Int(&base); !c.Encoding() && base != len(sh.Finished) {
		c.Failf("core: shard archive baseline %d does not match engine archive %d", base, len(sh.Finished))
		return
	}
	statecodec.Slice(c, &sh.Finished, base, func(f *FinishedStream) {
		f.ID.Code(c)
		c.Time(&f.FirstSeen)
		c.Time(&f.LastSeen)
		if f.Metrics == nil {
			f.Metrics = new(metrics.StreamMetrics)
		}
		f.Metrics.CodeWhole(c)
	})
}

// codeEngine walks the metric engine st owns inside the table's walk of
// st, so the table's change log lists it and its tombstone drops it. Every
// stream record owns one: the packet path makes it with the record, and a
// decoding pass keeps the record's (only its logs' tails follow) or takes
// one from slab. A delta writes the logs from where they stood at the
// checkpoint, also for an engine listed for an RTCP report alone.
func (sh *shard) codeEngine(c *statecodec.Codec, st *flow.StreamStats, slab *statecodec.Slab[ownedEngine], left int) {
	own, _ := st.Owner.(*streamOwner)
	switch {
	case c.Encoding():
		if !c.Full() {
			own.touch(sh.ckEpoch)
		}
	case own == nil:
		e := slab.New(left)
		e.own.sm, e.own.id = &e.sm, st.ID
		own, st.Owner = &e.own, &e.own
	}
	own.sm.Code(c)
}

// ownedEngine is a stream's owner and metric engine in one allocation.
type ownedEngine struct {
	own streamOwner
	sm  metrics.StreamMetrics
}
