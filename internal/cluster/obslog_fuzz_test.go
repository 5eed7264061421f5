package cluster

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"zoomlens/internal/core"
	"zoomlens/internal/layers"
	"zoomlens/internal/zoom"
)

// FuzzObsLogDecode holds the observation-log reader to its contract on
// hostile bytes — a worker's log reaches the aggregator as a file from
// another process: no input panics it, an error ends the stream (no
// record follows one, and it repeats), and whatever it does yield
// survives a write → read cycle unchanged.
func FuzzObsLogDecode(f *testing.F) {
	obs := func(seq uint64) core.ClusterObs {
		return core.ClusterObs{
			Seq: seq, At: time.Unix(1651744800, int64(seq)).UTC(),
			Flow: layers.FiveTuple{
				Src: netip.MustParseAddr("10.8.1.2"), Dst: netip.MustParseAddr("203.0.113.7"),
				SrcPort: 52000, DstPort: 8801, Proto: layers.ProtoUDP,
			},
			Key:     zoom.StreamKey{SSRC: 100, Type: zoom.TypeVideo},
			WireLen: 1100, PayloadLen: 1000, PT: 98, RTPSeq: uint16(seq), RTPTS: uint32(seq) * 2970,
		}
	}
	var log bytes.Buffer
	w := NewObsWriter(&log)
	w.Add(obs(1))
	w.Add(obs(4))
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	one := log.Len()
	w = NewObsWriter(&log) // a migrated worker's second segment
	w.Add(obs(7))
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	two := log.Bytes()
	f.Add(two)
	f.Add(two[:len(two)-3]) // torn tail
	badTag := bytes.Clone(two)
	badTag[len(obsMagic)+1] = 0x7f
	f.Add(badTag)
	wrongVersion := bytes.Clone(two)
	wrongVersion[one+len(obsMagic)] = obsVersion - 1 // in the second segment's header
	f.Add(wrongVersion)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewObsReader(data)
		if err != nil {
			return
		}
		var got []core.ClusterObs
		for {
			o, ok, err := r.Next()
			if err != nil {
				if ok {
					t.Fatalf("Next returned a record together with error %v", err)
				}
				if o, ok, again := r.Next(); ok || again == nil {
					t.Fatalf("after error %v, Next = (%+v, %v, %v); want the error to stick", err, o, ok, again)
				}
				break
			}
			if !ok {
				break
			}
			got = append(got, o)
		}
		var back bytes.Buffer
		w := NewObsWriter(&back)
		for _, o := range got {
			w.Add(o)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err = NewObsReader(back.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range got {
			if o, ok, err := r.Next(); err != nil || !ok || o != want {
				t.Fatalf("record %d re-read as (%+v, %v, %v), want %+v", i, o, ok, err, want)
			}
		}
	})
}
