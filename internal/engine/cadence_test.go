package engine

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zoomlens/internal/core"
	"zoomlens/internal/pcap"
)

// steppingDeadline is the schedule RunFrom used to spell out four times:
// arm on the first timestamp, fire at or past the deadline, then step
// the deadline one period at a time until it is ahead again. It is the
// reference cadence must agree with wherever the stepping terminates in
// reasonable time.
type steppingDeadline struct {
	every time.Duration
	at    time.Time
}

func (s *steppingDeadline) due(ts time.Time) bool {
	if s.at.IsZero() {
		s.at = ts.Add(s.every)
		return false
	}
	if ts.Before(s.at) {
		return false
	}
	for !ts.Before(s.at) {
		s.at = s.at.Add(s.every)
	}
	return true
}

// TestCadenceMatchesSteppingLoop: on monotone timestamps cadence fires
// on exactly the indices the stepping loop does and leaves the same
// deadline behind, for periods from 1 ms to 1 h and gaps from a
// fraction of a period to thousands of periods.
func TestCadenceMatchesSteppingLoop(t *testing.T) {
	for _, every := range []time.Duration{time.Millisecond, 7 * time.Millisecond, time.Second, 90 * time.Second, time.Hour} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := cadence{every: every}
			ref := steppingDeadline{every: every}
			ts := time.Date(2022, 5, 5, 10, 0, 0, 0, time.UTC)
			for i := 0; i < 2000; i++ {
				switch rng.Intn(10) {
				case 0: // duplicate timestamp
				case 1, 2: // lands exactly a whole number of periods on
					ts = ts.Add(time.Duration(rng.Intn(4)) * every)
				case 3: // a quiet stretch spanning many periods
					ts = ts.Add(time.Duration(rng.Int63n(int64(5000 * every))))
				default:
					ts = ts.Add(time.Duration(rng.Int63n(int64(every)/2 + 1)))
				}
				got, want := c.due(ts), ref.due(ts)
				if got != want || !c.next.Equal(ref.at) {
					t.Fatalf("every=%v seed=%d step %d at %v: due=%t next=%v, stepping loop: due=%t next=%v",
						every, seed, i, ts, got, c.next, want, ref.at)
				}
			}
		}
	}
}

// TestCadenceEdges pins what the stepping loop never defined: a disabled
// schedule, a backward clock, and a jump beyond time.Duration's range.
func TestCadenceEdges(t *testing.T) {
	t0 := time.Date(2022, 5, 5, 10, 0, 0, 0, time.UTC)

	off := cadence{}
	if off.due(t0) || off.due(t0.Add(time.Hour)) {
		t.Error("zero cadence fired")
	}

	c := cadence{every: time.Second}
	if c.due(t0) {
		t.Error("fired on the arming timestamp")
	}
	if c.due(t0.Add(-time.Hour)) || !c.next.Equal(t0.Add(time.Second)) {
		t.Error("a backward timestamp fired or moved the deadline")
	}
	if !c.due(t0.Add(time.Second)) {
		t.Error("did not fire exactly at the deadline")
	}

	// Year 9999 is ~8,000 years out: Sub saturates, the deadline
	// restarts from the timestamp itself.
	far := time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)
	if !c.due(far) || !c.next.Equal(far.Add(time.Second)) {
		t.Errorf("out-of-range jump: next = %v, want %v", c.next, far.Add(time.Second))
	}
	if c.due(far) || c.due(t0) {
		t.Error("fired again before the re-armed deadline")
	}
}

// TestRunFromFarFutureTimestamp is the hostile-clock rule for every
// schedule the driver keeps: one record stamped with classic pcap's last
// second (2106-02-07 06:28:15 UTC) inside a 2022 trace fires each armed
// schedule once, in constant time, and re-arms it there — so when the
// original clock resumes nothing fires until a timestamp passes the
// re-armed deadline.
func TestRunFromFarFutureTimestamp(t *testing.T) {
	const (
		before = 2500 // packets at 1 ms spacing before the jump: 2 periods pass
		after  = 2500 // and after it, back on the original clock
	)
	farTS := time.Unix(1<<32-1, 0).UTC()

	// hostile wraps the generator: the far-future record after `before`
	// packets, one more a full period past it at the very end. Both carry
	// a frame too short to parse, so the engine's own state sees nothing.
	// jumpTook reports how long the driver held the far-future record.
	hostile := func(t *testing.T) (next func(*pcap.Record) error, jumpTook func() time.Duration) {
		gen, _ := genSource(t, before+after)
		n := 0
		var handed time.Time
		var took time.Duration
		return func(rec *pcap.Record) error {
			n++
			if n == before+2 {
				took = time.Since(handed)
			}
			switch n {
			case before + 1:
				*rec = pcap.Record{Timestamp: farTS, Data: []byte{0}}
				handed = time.Now()
				return nil
			case before + after + 2:
				*rec = pcap.Record{Timestamp: farTS.Add(time.Second), Data: []byte{0}}
				return nil
			case before + after + 3:
				return io.EOF
			}
			return gen(rec)
		}, func() time.Duration { return took }
	}
	_, nets := genSource(t, 1)
	never := func() bool { return false }

	t.Run("rotate_full_drain", func(t *testing.T) {
		dir := t.TempDir()
		f := &Flags{
			Obs:                &ObsFlags{},
			Workers:            1,
			Rotate:             time.Second,
			RotateOut:          filepath.Join(dir, "window"),
			Checkpoint:         filepath.Join(dir, "state.zlcp"),
			CheckpointInterval: time.Second,
			CheckpointDelta:    time.Second,
			CheckpointKeep:     2,
			Features:           filepath.Join(dir, "features.csv"),
			FeatureWindow:      200 * time.Millisecond,
		}
		next, jumpTook := hostile(t)
		run, err := f.RunFrom(nets, next, never)
		if err != nil {
			t.Fatal(err)
		}
		run.Close()
		if d := jumpTook(); d > time.Second {
			t.Errorf("the far-future record held the ingest loop for %v", d)
		}
		// Packets 1001 and 2001, the jump, the record a period past it.
		if run.Rotations != 4 {
			t.Errorf("Rotations = %d, want 4", run.Rotations)
		}
		// The same four firings. The last one is on the last record, so it
		// already holds the shutdown state and no shutdown full follows.
		// Every full pushes the equal-cadence delta schedule out, so no
		// delta is written.
		if ck := run.Checkpointer; ck.Fulls != 4 || ck.Deltas != 0 {
			t.Errorf("wrote %d fulls / %d deltas, want 4 / 0", ck.Fulls, ck.Deltas)
		}

		// Drain cadence never changes the rows; the same trace without the
		// two hostile records yields as many.
		clean, _ := genSource(t, before+after)
		g := *f
		g.RotateOut, g.Checkpoint, g.Features = filepath.Join(dir, "cwindow"), filepath.Join(dir, "cstate.zlcp"), filepath.Join(dir, "cfeatures.csv")
		ctl, err := g.RunFrom(nets, clean, never)
		if err != nil {
			t.Fatal(err)
		}
		ctl.Close()
		if run.FeatureRows == 0 || run.FeatureRows != ctl.FeatureRows {
			t.Errorf("FeatureRows = %d, clean trace %d", run.FeatureRows, ctl.FeatureRows)
		}
	})

	// The snapshot schedule: the same four firings (packets 1001 and
	// 2001, the jump, the record a period past it); the end-of-capture
	// snapshot repeats the last instant.
	t.Run("snapshot", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "snapshots.jsonl")
		f := &Flags{Obs: &ObsFlags{SnapshotInterval: time.Second, SnapshotOut: out}, Workers: 1}
		next, jumpTook := hostile(t)
		run, err := f.RunFrom(nets, next, never)
		if err != nil {
			t.Fatal(err)
		}
		run.Close()
		if d := jumpTook(); d > time.Second {
			t.Errorf("the far-future record held the ingest loop for %v", d)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var instants []time.Time
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			var ms core.MeetingSnapshot
			if err := json.Unmarshal(line, &ms); err != nil {
				t.Fatalf("snapshot line %q: %v", line, err)
			}
			if n := len(instants); n == 0 || !instants[n-1].Equal(ms.Time) {
				instants = append(instants, ms.Time)
			}
		}
		if len(instants) != 4 || !instants[2].Equal(farTS) || !instants[3].Equal(farTS.Add(time.Second)) {
			t.Errorf("snapshots at %v, want two on the original clock, the jump and the record a period past it", instants)
		}
	})

	// The delta schedule alone (no periodic full to push it out): an
	// unarmed engine turns the first firing into a full, the next three
	// are deltas, and shutdown writes the second full.
	t.Run("delta", func(t *testing.T) {
		f := &Flags{
			Obs:             &ObsFlags{},
			Workers:         1,
			Checkpoint:      filepath.Join(t.TempDir(), "state.zlcp"),
			CheckpointDelta: time.Second,
			CheckpointKeep:  2,
		}
		next, jumpTook := hostile(t)
		run, err := f.RunFrom(nets, next, never)
		if err != nil {
			t.Fatal(err)
		}
		run.Close()
		if d := jumpTook(); d > time.Second {
			t.Errorf("the far-future record held the ingest loop for %v", d)
		}
		if ck := run.Checkpointer; ck.Fulls != 2 || ck.Deltas != 3 {
			t.Errorf("wrote %d fulls / %d deltas, want 2 / 3", ck.Fulls, ck.Deltas)
		}
	})
}
