package meeting

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/zoom"
)

func dedupRecord(d *Dedup, full bool) []byte {
	var w statecodec.Writer
	d.Code(statecodec.NewEncoder(&w, full))
	d.MarkCheckpointed()
	return bytes.Clone(w.Bytes())
}

// TestDedupHandleMatchesKeyed feeds one observation sequence to two
// detectors, one through a handle per stream and one through Observe:
// interleaved streams, copies that link, pauses long enough for the
// ageing sweep to unlink a stream before its next packet links it again
// (three ageEvery crossings a seed), a cap on some seeds, and a full
// record then deltas along the way. Unified IDs, Records and the record
// bytes must be equal throughout — and the by-handle detector must have
// gone through its handles, not the map.
func TestDedupHandleMatchesKeyed(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type src struct {
			o StreamObs
			h Handle
		}
		var srcs []*src
		keyed, byHandle := NewDedup(), NewDedup()
		if seed%4 == 0 {
			keyed.MaxStreams, byHandle.MaxStreams = 12, 12
		}
		at := t0
		for i := 0; i < 3*ageEvery+100; i++ {
			at = at.Add(time.Duration(rng.Intn(40)) * time.Millisecond)
			if len(srcs) < 4 || rng.Intn(150) == 0 {
				s := &src{o: StreamObs{Flow: ft(c1, uint16(1024+len(srcs)), sfu, 8801), Key: zoom.StreamKey{SSRC: uint32(rng.Intn(6)), Type: zoom.TypeVideo}, TS: rng.Uint32()}}
				if len(srcs) > 0 && rng.Intn(2) == 0 { // a copy of an existing stream
					o := srcs[rng.Intn(len(srcs))].o
					s.o.Key, s.o.TS = o.Key, o.TS+uint32(rng.Intn(3*zoom.VideoClockRate))
				}
				srcs = append(srcs, s)
			}
			s := srcs[rng.Intn(1+rng.Intn(len(srcs)))] // low-numbered sources pause for long
			s.o.Time, s.o.TS, s.o.Seq = at, s.o.TS+2970, s.o.Seq+1
			if a, b := keyed.Observe(s.o), byHandle.ObserveBy(&s.h, &s.o); a != b {
				t.Fatalf("seed %d observation %d: unified ID %d keyed, %d by handle", seed, i, a, b)
			}
			if want := byHandle.streams[flow.MediaStreamID{Flow: s.o.Flow, Key: s.o.Key}]; s.h.s != want || (want != nil && s.h.d != byHandle) {
				t.Fatalf("seed %d observation %d: handle names %p of %p, the record is %p of %p", seed, i, s.h.s, s.h.d, want, byHandle)
			}
			if i%1500 == 1499 {
				if a, b := dedupRecord(keyed, i < 1500), dedupRecord(byHandle, i < 1500); !bytes.Equal(a, b) {
					t.Fatalf("seed %d observation %d: records differ (%d vs %d bytes)", seed, i, len(a), len(b))
				}
			}
		}
		clientOf := ClientOf(serverIs)
		if a, b := keyed.Records(clientOf), byHandle.Records(clientOf); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Records differ", seed)
		}
		if a, b := dedupRecord(keyed, true), dedupRecord(byHandle, true); !bytes.Equal(a, b) || keyed.Dropped != byHandle.Dropped {
			t.Fatalf("seed %d: full records differ (%d vs %d bytes), dropped %d vs %d", seed, len(a), len(b), keyed.Dropped, byHandle.Dropped)
		}
		var relinked int
		for _, s := range byHandle.streams {
			if !s.evicted && s.lastSeen.Sub(s.firstSeen) > 2*linkWindow {
				relinked++
			}
		}
		if relinked == 0 || (seed%4 == 0) != (byHandle.Dropped > 0) {
			t.Fatalf("seed %d: workload exercises nothing (%d long-lived streams, %d dropped)", seed, relinked, byHandle.Dropped)
		}
	}
}

// TestDedupHandleNamesItsDetector: a handle another detector filled — the
// previous report window's, the one a restore replaced — is not followed,
// and is taken over by the detector that found its own record.
func TestDedupHandleNamesItsDetector(t *testing.T) {
	old, cur := NewDedup(), NewDedup()
	var h Handle
	o := StreamObs{Time: t0, Flow: up1, Key: vKey, TS: 1000}
	old.ObserveBy(&h, &o)
	o.Time, o.TS = t0.Add(time.Minute), 9000
	cur.Observe(StreamObs{Time: t0, Flow: down2, Key: vKey, TS: 500}) // takes unified ID 1 in cur
	if got := cur.ObserveBy(&h, &o); got != 2 {
		t.Errorf("the new detector answered unified ID %d, want its own 2", got)
	}
	if s := old.streams[flow.MediaStreamID{Flow: up1, Key: vKey}]; !s.lastSeen.Equal(t0) || s.lastTS != 1000 {
		t.Errorf("the old detector's record moved to %v / %d", s.lastSeen, s.lastTS)
	}
	if h.d != cur || h.s != cur.streams[flow.MediaStreamID{Flow: up1, Key: vKey}] {
		t.Error("the handle was not taken over by the detector that was asked")
	}
}

// TestDedupHandleStaysEmptyAtCap: a detector at MaxStreams stores no
// record for a new stream, so there is nothing for the handle to name:
// every packet of the stream takes the keyed path, gets a fresh unified
// ID and counts in Dropped, as without a handle.
func TestDedupHandleStaysEmptyAtCap(t *testing.T) {
	d := NewDedup()
	d.MaxStreams = 1
	feed(d, up1, vKey, t0, 0, 1000, 3)
	var h Handle
	ids := map[UnifiedID]bool{}
	for i := 0; i < 5; i++ {
		ids[d.ObserveBy(&h, &StreamObs{Time: t0.Add(time.Second), Flow: ft(c2, 40000, sfu, 8801), Key: zoom.StreamKey{SSRC: 9, Type: zoom.TypeAudio}, TS: uint32(i)})] = true
	}
	if h != (Handle{}) || d.Dropped != 5 || len(ids) != 5 || d.Len() != 1 {
		t.Errorf("handle %+v, dropped %d, %d distinct IDs, %d records; want an empty handle, 5, 5 and 1", h, d.Dropped, len(ids), d.Len())
	}
}

func BenchmarkDedupObserveByHandle(b *testing.B) {
	d := NewDedup()
	obs := StreamObs{Flow: up1, Key: vKey, TS: 1000}
	var h Handle
	at := t0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs.Time = at
		obs.Seq = uint16(i)
		obs.TS = uint32(i) * 2970
		d.ObserveBy(&h, &obs)
		at = at.Add(33 * time.Millisecond)
	}
}
