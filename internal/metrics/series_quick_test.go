package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"zoomlens/internal/rtp"
)

// Property tests on the Series binning invariants that every figure and
// feature row depends on.

func genSeries(rng *rand.Rand) Series {
	var s Series
	n := rng.Intn(200)
	at := t0.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
	for i := 0; i < n; i++ {
		at = at.Add(time.Duration(rng.Intn(2000)) * time.Millisecond)
		s.Add(Nanos(at), float64(rng.Intn(1000)))
	}
	return s
}

func TestQuickBinSumConservation(t *testing.T) {
	f := func(s Series) bool {
		var total float64
		for _, x := range all(s.Samples) {
			total += x.Value
		}
		var binned float64
		for _, b := range s.Bin(t0, time.Second, "sum") {
			binned += b.Value
		}
		return math.Abs(total-binned) < 1e-6
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(genSeries(rng))
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBinCountConservation(t *testing.T) {
	f := func(s Series) bool {
		var counted float64
		for _, b := range s.Bin(t0, time.Second, "count") {
			counted += b.Value
		}
		return int(counted) == s.Samples.Len()
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(genSeries(rng))
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBinsContiguousAndOrdered(t *testing.T) {
	f := func(s Series) bool {
		bins := s.Bin(t0, time.Second, "mean")
		for i := 1; i < len(bins); i++ {
			if bins[i].Time().Sub(bins[i-1].Time()) != time.Second {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(genSeries(rng))
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickFrameRateWindowNeverNegativeAndEvicts(t *testing.T) {
	f := func(gapsMS []uint16) bool {
		w := new(FrameRateWindow)
		at := t0
		for _, g := range gapsMS {
			at = at.Add(time.Duration(g%500) * time.Millisecond)
			if w.Add(Nanos(at)) < 0 {
				return false
			}
		}
		// After a long idle everything evicts.
		return w.Rate(Nanos(at.Add(time.Hour))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickSeqTrackerReceivedConserved(t *testing.T) {
	f := func(seqs []uint16) bool {
		tr := rtp.NewSeqTracker()
		for _, s := range seqs {
			tr.Observe(s)
		}
		st := tr.Stats()
		if len(seqs) == 0 {
			return st.Received == 0
		}
		return st.Received == uint64(len(seqs)) && st.Duplicates <= st.Received
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
