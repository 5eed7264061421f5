package meeting

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/zoom"
)

// applyRecord decodes one full or delta record onto d the way the engine
// does, arming d for the next delta.
func applyRecord(d *Dedup, rec []byte) error {
	r := statecodec.NewReader(rec)
	d.Code(statecodec.NewDecoder(r))
	if err := r.Err(); err != nil {
		return err
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("%d bytes left after the record", n)
	}
	d.MarkCheckpointed()
	return nil
}

// index lists the copy-lookup index by stream id, each list in its order.
func index(d *Dedup) map[zoom.StreamKey][]flow.MediaStreamID {
	out := make(map[zoom.StreamKey][]flow.MediaStreamID, len(d.bySSRC))
	for k, list := range d.bySSRC {
		for _, s := range list {
			out[k] = append(out[k], s.id)
		}
	}
	return out
}

// TestDedupRestoreIgnoresForeignIndex: the index is not in the record,
// so a detector whose in-memory index lists SSRC 100's stream under SSRC
// 200 writes a record that restores to the index its records imply. The
// next SSRC-200 stream on another flow must not take SSRC 100's unified
// ID — that would merge two meetings.
func TestDedupRestoreIgnoresForeignIndex(t *testing.T) {
	live := NewDedup()
	id := feed(live, up1, vKey, t0, 0, 10000, 5)
	foreign := zoom.StreamKey{SSRC: 200, Type: zoom.TypeVideo}
	live.bySSRC[foreign] = live.bySSRC[vKey]
	d := NewDedup()
	if err := applyRecord(d, dedupRecord(live, true)); err != nil {
		t.Fatal(err)
	}
	if got := index(d); len(got[foreign]) != 0 || len(got[vKey]) != 1 {
		t.Errorf("restored index %v, want one stream under SSRC 100 only", got)
	}
	if got := feed(d, down2, foreign, t0.Add(200*time.Millisecond), 5, 10000+5*2970, 1); got == id {
		t.Errorf("an SSRC-200 stream took SSRC 100's unified ID %d", id)
	}
}

// TestDedupRestoreRefusesUnifiedIDOutOfRange: a decoded record's unified
// ID must lie in [1, nextID]. One above nextID would be handed again to
// the next unrelated stream, making two streams that are not copies one.
func TestDedupRestoreRefusesUnifiedIDOutOfRange(t *testing.T) {
	for _, full := range []bool{true, false} {
		for _, bad := range []UnifiedID{0, -1, 3, 1 << 40} {
			live := NewDedup()
			feed(live, up1, vKey, t0, 0, 10000, 3)
			feed(live, ft(c2, 61500, sfu, 8801), zoom.StreamKey{SSRC: 7, Type: zoom.TypeAudio}, t0, 0, 0, 3)
			base := dedupRecord(live, true)
			s := live.streams[flow.MediaStreamID{Flow: up1, Key: vKey}]
			feed(live, up1, vKey, t0.Add(time.Second), 3, 10000+3*2970, 1)
			s.unified = bad
			rec := dedupRecord(live, full)
			d := NewDedup()
			if !full {
				if err := applyRecord(d, base); err != nil {
					t.Fatal(err)
				}
			}
			if err := applyRecord(d, rec); !errors.Is(err, statecodec.ErrCorrupt) {
				t.Errorf("full=%v: a record with unified ID %d (nextID %d) decoded with err %v", full, bad, live.nextID, err)
			}
		}
	}
}

// TestDedupRestoreMatchesLive runs TestDedupAgeingIsInvisible's workload
// through the live detector's own ageing cadence and checkpoints it at
// random points, full or delta. After every record a detector restored
// from the chain must hold the live index list for list, in the
// canonical order, and then answer every later observation with the live
// detector's unified ID until the next record replaces it.
func TestDedupRestoreMatchesLive(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type src struct {
			flow flow.MediaStreamID
			ts   uint32
		}
		var srcs []src
		live := NewDedup()
		var chain [][]byte
		var resumed *Dedup
		var restores, relinked int
		at := t0
		for i := 0; i < 3*ageEvery+100; i++ {
			at = at.Add(time.Duration(rng.Intn(600)) * time.Millisecond)
			if len(srcs) < 4 || rng.Intn(40) == 0 {
				s := src{flow: flow.MediaStreamID{Flow: ft(c1, uint16(1024+len(srcs)), sfu, 8801), Key: zoom.StreamKey{SSRC: uint32(rng.Intn(6)), Type: zoom.TypeVideo}}, ts: rng.Uint32()}
				if len(srcs) > 0 && rng.Intn(2) == 0 {
					o := srcs[rng.Intn(len(srcs))]
					s.flow.Key, s.ts = o.flow.Key, o.ts+uint32(rng.Intn(3*zoom.VideoClockRate))
				}
				srcs = append(srcs, s)
			}
			s := &srcs[rng.Intn(1+rng.Intn(len(srcs)))]
			s.ts += 2970
			o := StreamObs{Time: at, Flow: s.flow.Flow, Key: s.flow.Key, TS: s.ts}
			if st := live.streams[s.flow]; st != nil && st.evicted {
				relinked++
			}
			want := live.Observe(o)
			if resumed != nil {
				if got := resumed.Observe(o); got != want {
					t.Fatalf("seed %d observation %d: restored detector answered unified ID %d, live %d", seed, i, got, want)
				}
			}
			if rng.Intn(250) != 0 {
				continue
			}
			full := len(chain) == 0 || rng.Intn(4) == 0
			if full {
				chain = chain[:0]
			}
			chain = append(chain, dedupRecord(live, full))
			resumed = NewDedup()
			for j, rec := range chain {
				if err := applyRecord(resumed, rec); err != nil {
					t.Fatalf("seed %d observation %d: record %d of the chain: %v", seed, i, j, err)
				}
			}
			restores++
			if got, want := index(resumed), index(live); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d observation %d: restored index differs from the live one:\n got %v\nwant %v", seed, i, got, want)
			}
			for k, list := range live.bySSRC {
				if !slices.IsSortedFunc(list, linkOrder) {
					t.Fatalf("seed %d observation %d: live list for %v is out of (first seen, id) order", seed, i, k)
				}
			}
		}
		if restores < 10 || relinked == 0 {
			t.Fatalf("seed %d: workload exercises nothing (%d restores, %d relinked streams)", seed, restores, relinked)
		}
	}
}

// TestDedupTiedFirstSeenOrder: two same-key streams first seen at one
// instant, created in the opposite order to their ids, sit in id order
// in the live index and in a restored one. A later candidate equally far
// from both in RTP time (a tie on the gap) takes the earlier entry's ID,
// live and restored alike.
func TestDedupTiedFirstSeenOrder(t *testing.T) {
	lo, hi := ft(c1, 1000, sfu, 8801), ft(c1, 2000, sfu, 8801)
	live := NewDedup()
	idHi := live.Observe(StreamObs{Time: t0, Flow: hi, Key: vKey, TS: 1_000_000})
	idLo := live.Observe(StreamObs{Time: t0, Flow: lo, Key: vKey, TS: 1_000_000 + 2*100_000})
	if idHi == idLo {
		t.Fatal("the two streams were linked; the workload needs two unified IDs")
	}
	if got := index(live)[vKey]; len(got) != 2 || got[0].Flow != lo {
		t.Fatalf("live index %v, want the lower id first", got)
	}
	restored := NewDedup()
	if err := applyRecord(restored, dedupRecord(live, true)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(index(restored), index(live)) {
		t.Fatalf("restored index %v, live %v", index(restored), index(live))
	}
	o := StreamObs{Time: t0.Add(time.Second), Flow: down2, Key: vKey, TS: 1_000_000 + 100_000}
	if a, b := live.Observe(o), restored.Observe(o); a != idLo || b != idLo {
		t.Errorf("tied candidate took unified ID %d live, %d restored; want %d (the lower id's)", a, b, idLo)
	}
}
