package meeting

import (
	"zoomlens/internal/flow"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/zoom"
)

// Checkpoint boundary for step-1 duplicate detection. A delta record
// re-serializes only the stream records on the change log, plus the
// bySSRC lists of SSRC keys whose membership changed; a full record is
// the same walk with everything selected. Stream records are never
// deleted from d.streams — ageing only unlinks them from the index — so
// there are no tombstones. (The step-2 Grouper is rebuilt from records
// on every Meetings() call and carries no state here.)

func (d *Dedup) markSSRCDirty(k zoom.StreamKey) {
	if !d.log.Armed() {
		return
	}
	if d.dirtySSRC == nil {
		d.dirtySSRC = make(map[zoom.StreamKey]struct{})
	}
	d.dirtySSRC[k] = struct{}{}
}

// MarkCheckpointed resets delta tracking after a checkpoint encode or
// decode, arming the detector for the next delta.
func (d *Dedup) MarkCheckpointed() {
	d.log.MarkCheckpointed()
	clear(d.dirtySSRC)
}

// Code walks the detector through c: counters (the ageing clock among
// them), stream records and the index. The linkage windows are constants
// and MaxStreams is the builder's configuration; neither is in the
// record. The bySSRC lists are ORDER-SENSITIVE
// state: matchExisting's strict less-than gap comparison favors earlier
// entries on ties, so each list is written as an ordered sequence of
// (flow, key) references that a decoding pass resolves against the
// stream table, preserving insertion order exactly; an empty list
// (a dirty key no longer indexed) deletes the key. Callers must call MarkCheckpointed after a
// successful pass; a detector whose decoding pass failed holds
// partially applied state and must be discarded.
func (d *Dedup) Code(c *statecodec.Codec) {
	c.U64(&d.Dropped)
	c.Int((*int)(&d.nextID))
	c.U64(&d.observed)

	statecodec.Map(c, flow.StreamIDKey, &d.streams, nil,
		&d.log,
		func(id flow.MediaStreamID, s *streamState) {
			s.id = id
			c.Int((*int)(&s.unified))
			c.Time(&s.firstSeen)
			c.Time(&s.lastSeen)
			c.U32(&s.firstTS)
			c.U32(&s.lastTS)
			c.Bool(&s.evicted)
		})

	statecodec.MapSet(c, zoom.StreamKeyKey, &d.bySSRC, d.dirtySSRC, func(_ zoom.StreamKey, list []*streamState) ([]*streamState, bool) {
		statecodec.Slice(c, &list, 0, func(s **streamState) {
			var ref flow.MediaStreamID
			if c.Encoding() {
				ref = (*s).id
			}
			if ref.Code(c); !c.Encoding() {
				if *s = d.streams[ref]; *s == nil {
					c.Failf("meeting.Dedup dangling stream ref %v", ref.Flow)
				}
			}
		})
		return list, len(list) > 0 && c.Err() == nil
	})
}
