// Package cluster implements multi-process scale-out of the analysis
// pipeline: a flow-hash splitter that fans one capture out to N worker
// processes as pcapng streams, the observation-log format workers use
// to export their cross-flow media observations, and the split manifest
// that carries the splitter's head counters to the aggregator. The
// aggregator itself lives in cmd/zoomagg (it needs the engine driver's
// checkpoint-restore machinery; this package stays importable by the
// driver).
package cluster

import (
	"fmt"
	"io"

	"zoomlens/internal/core"
	"zoomlens/internal/statecodec"
)

// Observation logs ("ZLOB" files) are a concatenation of segments, each
// a magic header followed by tagged records. A worker opens its log in
// append mode, so a drained-and-migrated worker's second life simply
// appends a new segment to the same file — sequence numbers only ever
// grow, so readers see one ordered stream.
const (
	obsMagic = "ZLOB"
	// obsVersion 2 added the protocol byte inside every encoded
	// zoom.StreamKey; version 3 added the wire and payload lengths that
	// feed the feature windower. Older logs are rejected.
	obsVersion = 3
	// obsTagRecord precedes every record; the 'Z' of a segment header
	// is the only other byte legal at a record boundary.
	obsTagRecord = 0x01
	// obsFlushLen is the buffered-encode threshold at which the writer
	// spills to the underlying stream.
	obsFlushLen = 64 << 10
)

// ObsWriter streams ClusterObs records to w in the observation-log
// format. Writes are buffered; call Flush (or just Flush at shutdown)
// to push the tail out. Errors are sticky and surface on Flush/Err.
type ObsWriter struct {
	w   io.Writer
	enc statecodec.Writer
	// c is the encoding pass over enc that codeObs walks records through.
	c   *statecodec.Codec
	err error
}

// codeObs is a record's one field list: ObsWriter.Add and ObsReader.Next
// both walk it.
func codeObs(c *statecodec.Codec, o *core.ClusterObs) {
	c.U64(&o.Seq)
	c.Time(&o.At)
	o.Flow.Code(c)
	o.Key.Code(c)
	c.U8(&o.PT)
	c.U16(&o.RTPSeq)
	c.U32(&o.RTPTS)
	wire, payload := uint32(o.WireLen), uint32(o.PayloadLen)
	c.U32(&wire)
	c.U32(&payload)
	o.WireLen, o.PayloadLen = int(wire), int(payload)
}

// NewObsWriter starts a new log segment on w.
func NewObsWriter(w io.Writer) *ObsWriter {
	ow := &ObsWriter{w: w}
	ow.c = statecodec.NewEncoder(&ow.enc, true)
	for i := 0; i < len(obsMagic); i++ {
		ow.enc.U8(obsMagic[i])
	}
	ow.enc.U8(obsVersion)
	return ow
}

// Add appends one observation record.
func (ow *ObsWriter) Add(o core.ClusterObs) {
	if ow.err != nil {
		return
	}
	ow.enc.U8(obsTagRecord)
	codeObs(ow.c, &o)
	if ow.enc.Len() >= obsFlushLen {
		ow.flush()
	}
}

func (ow *ObsWriter) flush() {
	if ow.err != nil || ow.enc.Len() == 0 {
		return
	}
	_, ow.err = ow.w.Write(ow.enc.Bytes())
	ow.enc.Reset()
}

// Flush pushes buffered records to the underlying writer and reports
// the first error encountered.
func (ow *ObsWriter) Flush() error {
	ow.flush()
	return ow.err
}

// Err reports the sticky write error, if any.
func (ow *ObsWriter) Err() error { return ow.err }

// ObsReader decodes an observation log from memory. Records within one
// log are ordered by Seq (a worker receives and processes its frames in
// splitter order; a migrated worker's appended segment continues where
// the first life stopped).
type ObsReader struct {
	r *statecodec.Reader
	// c is the decoding pass over r's input.
	c *statecodec.Codec
}

// NewObsReader validates the leading segment header and returns a
// reader over data.
func NewObsReader(data []byte) (*ObsReader, error) {
	or := &ObsReader{r: statecodec.NewReader(data)}
	or.c = statecodec.NewDecoder(or.r)
	if err := or.header(); err != nil {
		return nil, err
	}
	return or, nil
}

// header consumes one segment header at the current position.
func (or *ObsReader) header() error {
	for i := 0; i < len(obsMagic); i++ {
		if or.r.U8() != obsMagic[i] {
			return fmt.Errorf("cluster: not an observation log (bad magic)")
		}
	}
	if v := or.r.U8(); v != obsVersion {
		return fmt.Errorf("cluster: observation log version %d not supported", v)
	}
	return or.r.Err()
}

// Next returns the next observation, ok=false at a clean end of log.
// A decode error ends the stream: it is returned, with no record, by
// this and every later call.
func (or *ObsReader) Next() (core.ClusterObs, bool, error) {
	for or.r.Err() == nil && or.r.Remaining() > 0 {
		switch tag := or.r.U8(); tag {
		case obsTagRecord:
			var o core.ClusterObs
			if codeObs(or.c, &o); or.r.Err() == nil {
				return o, true, nil
			}
		case obsMagic[0]:
			// A new segment header (an appended second life): consume the
			// rest of the magic and the version, then continue.
			for i := 1; i < len(obsMagic); i++ {
				if or.r.U8() != obsMagic[i] {
					or.c.Failf("cluster: corrupt observation log (bad segment magic)")
				}
			}
			if v := or.r.U8(); v != obsVersion {
				or.c.Failf("cluster: observation log version %d not supported", v)
			}
		default:
			or.c.Failf("cluster: corrupt observation log (tag 0x%02x)", tag)
		}
	}
	return core.ClusterObs{}, false, or.r.Err()
}

// MergeObs k-way merges per-worker observation logs into one stream in
// global capture (Seq) order — the aggregator-side equivalent of the
// in-process reconciliation's k-way merge over shard chains. The
// returned next function matches core.MergeCluster's contract; errf
// reports the first decode error after the stream ends.
func MergeObs(readers []*ObsReader) (next func() (core.ClusterObs, bool), errf func() error) {
	type cursor struct {
		o  core.ClusterObs
		ok bool
	}
	cur := make([]cursor, len(readers))
	var firstErr error
	advance := func(i int) {
		o, ok, err := readers[i].Next()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		cur[i] = cursor{o: o, ok: ok && err == nil}
	}
	for i := range readers {
		advance(i)
	}
	next = func() (core.ClusterObs, bool) {
		best := -1
		for i := range cur {
			if !cur[i].ok {
				continue
			}
			if best < 0 || cur[i].o.Seq < cur[best].o.Seq {
				best = i
			}
		}
		if best < 0 {
			return core.ClusterObs{}, false
		}
		o := cur[best].o
		advance(best)
		return o, true
	}
	errf = func() error { return firstErr }
	return next, errf
}
