package meeting

import (
	"slices"

	"zoomlens/internal/flow"
	"zoomlens/internal/statecodec"
)

// Checkpoint boundary for step-1 duplicate detection. A delta record
// re-serializes only the stream records on the change log; a full record
// is the same walk with everything selected. Stream records are never
// deleted from d.streams — ageing only unlinks them from the index — so
// there are no tombstones. The bySSRC index is not in the record: it is
// a function of the records (each one's key and evicted flag, in
// (first seen, id) order), so a decoding pass rebuilds it and no record
// can make it disagree with them. (The step-2 Grouper is rebuilt from
// records on every Meetings() call and carries no state here.)

// MarkCheckpointed resets delta tracking after a checkpoint encode or
// decode, arming the detector for the next delta.
func (d *Dedup) MarkCheckpointed() { d.log.MarkCheckpointed() }

// Code walks the detector through c: counters (the ageing clock among
// them) and stream records. The linkage windows are constants, not in
// the record. A decoded record's unified ID must lie in [1, nextID]: one
// above would be handed again to the next unrelated stream. Callers must
// call MarkCheckpointed after a successful pass; a detector whose
// decoding pass failed holds partially applied state and must be
// discarded.
func (d *Dedup) Code(c *statecodec.Codec) {
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
			if s.unified < 1 || s.unified > d.nextID {
				c.Failf("meeting.Dedup stream %v unified ID %d outside [1, %d]", id.Flow, s.unified, d.nextID)
			}
		})

	if !c.Encoding() && c.Err() == nil {
		d.reindex()
	}
}

// reindex rebuilds bySSRC from the records.
func (d *Dedup) reindex() {
	clear(d.bySSRC)
	for _, s := range d.streams {
		if !s.evicted {
			d.bySSRC[s.id.Key] = append(d.bySSRC[s.id.Key], s)
		}
	}
	for _, list := range d.bySSRC {
		slices.SortFunc(list, linkOrder)
	}
}
