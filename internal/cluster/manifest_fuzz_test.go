package cluster

import (
	"reflect"
	"testing"
	"time"

	"zoomlens/internal/core"
)

// FuzzManifest holds the manifest parser to its contract on hostile
// bytes — the aggregator reads a manifest another process wrote: no
// input panics it, and a manifest it loads marshals to bytes that load
// back equal.
func FuzzManifest(f *testing.F) {
	t0 := time.Date(2022, 5, 5, 9, 58, 0, 123456789, time.UTC)
	saved, err := MarshalManifest(Manifest{
		Version: 1,
		Workers: 3,
		ClusterHead: core.ClusterHead{
			Packets: 120_000, Bytes: 96_000_000, Undecodable: 7, DroppedByFilter: 30_000,
			Truncated: true, FirstTS: t0, LastTS: t0.Add(5 * time.Minute),
		},
		KeptPerWorker: []uint64{30_000, 29_000, 31_000},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved)
	for _, n := range []int{0, 1, len(saved) / 3, len(saved) / 2, len(saved) - 2} {
		f.Add(saved[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		out, err := MarshalManifest(m)
		if err != nil {
			t.Fatalf("a loaded manifest does not marshal: %v", err)
		}
		back, err := parseManifest(out)
		if err != nil {
			t.Fatalf("a marshalled manifest does not load: %v\n%s", err, out)
		}
		if !back.FirstTS.Equal(m.FirstTS) || !back.LastTS.Equal(m.LastTS) {
			t.Fatalf("timestamps %v..%v loaded back as %v..%v", m.FirstTS, m.LastTS, back.FirstTS, back.LastTS)
		}
		m.FirstTS, m.LastTS, back.FirstTS, back.LastTS = time.Time{}, time.Time{}, time.Time{}, time.Time{}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("manifest %+v loaded back as %+v", m, back)
		}
	})
}
