package core

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"strings"
	"testing"
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/statecodec"
)

// streamIDs lists the ID of every stream segment, in Streams order.
func streamIDs(a *Analyzer) []flow.MediaStreamID {
	var ids []flow.MediaStreamID
	for _, seg := range a.Streams() {
		ids = append(ids, seg.ID)
	}
	return ids
}

// reportBytes renders an analyzer's complete results as a deterministic
// byte blob: summary, meetings, every stream's loss stats and series,
// and the RTT samples. Two runs whose blobs match are byte-identical for
// reporting purposes.
func reportBytes(t *testing.T, a *Analyzer) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	must := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	must(a.Summary())
	must(a.Meetings())
	for _, seg := range a.Streams() {
		id, sm := seg.ID, seg.Metrics
		must(id)
		must(sm.LossStats())
		must(all(sm.FrameRate().Samples))
		must(all(sm.MediaRate.Samples))
		must(sm.Stalls())
		must(all(sm.JitterMS.Samples))
		must(all(sm.FrameSize().Samples))
		must(all(*sm.Frames()))
	}
	must(all(a.Copies.Samples))
	return b.Bytes()
}

// all copies a log out, for comparing or encoding it whole.
func all[T any](l statecodec.Log[T]) []T {
	out := make([]T, l.Len())
	for i := range out {
		out[i] = *l.At(i)
	}
	return out
}

// TestSnapshotsDoNotPerturbResults is the acceptance gate for the
// observability layer: enabling periodic snapshots must leave the final
// report byte-identical — sequential and 4-worker parallel alike — to a
// run without snapshots, and the snapshot streams themselves must match
// between sequential and parallel runs at the same packet boundaries.
func TestSnapshotsDoNotPerturbResults(t *testing.T) {
	tr, opts := seededTrace(t, 20)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	const interval = 2 * time.Second

	// Baseline: sequential, no snapshots.
	base := NewAnalyzer(cfg)
	tr.feed(base.Packet)
	base.Finish()
	want := reportBytes(t, base)

	// snapshotting feeds the trace through eng, writing a JSON-lines
	// snapshot after the first packet an interval or more past the
	// previous one.
	snapshotting := func(eng Engine) []byte {
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		next := tr.at[0].Add(interval)
		tr.feed(func(at time.Time, frame []byte) {
			eng.Packet(at, frame)
			if at.Before(next) {
				return
			}
			next = at.Add(interval)
			for _, ms := range eng.Snapshot(at, interval) {
				if err := enc.Encode(ms); err != nil {
					t.Fatal(err)
				}
			}
		})
		eng.Finish()
		return out.Bytes()
	}

	seq := NewAnalyzer(cfg)
	seqSnaps := snapshotting(seq)
	if got := reportBytes(t, seq); !bytes.Equal(got, want) {
		t.Error("sequential report changed when snapshots were enabled")
	}

	// 4-worker parallel with the same snapshot schedule.
	pa := NewParallelAnalyzer(cfg, 4)
	parSnaps := snapshotting(pa)
	if got := reportBytes(t, pa.Result()); !bytes.Equal(got, want) {
		t.Error("parallel report changed when snapshots were enabled")
	}

	// The snapshot stream is itself deterministic across modes: the same
	// packet prefix quiesced at the same boundary yields the same bytes.
	if !bytes.Equal(seqSnaps, parSnaps) {
		t.Errorf("snapshot streams diverge between sequential and parallel:\n--- sequential\n%s--- parallel\n%s",
			seqSnaps, parSnaps)
	}

	checkSnapshotStream(t, string(seqSnaps), interval)
}

// checkSnapshotStream validates the JSON-lines snapshot output: every
// line parses, fields are sane, and cumulative packet counts are
// monotone over time (summed across meetings — meeting IDs may merge
// between snapshots).
func checkSnapshotStream(t *testing.T, out string, interval time.Duration) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 3 {
		t.Fatalf("expected several snapshot lines over the trace, got %d:\n%s", len(lines), out)
	}
	sumAt := make(map[time.Time]uint64)
	var times []time.Time
	var sawMedia, sawRTT bool
	for _, ln := range lines {
		var ms MeetingSnapshot
		if err := json.Unmarshal([]byte(ln), &ms); err != nil {
			t.Fatalf("snapshot line does not parse: %v\n%s", err, ln)
		}
		if ms.Time.IsZero() || ms.Meeting <= 0 || ms.Streams <= 0 || ms.Participants <= 0 {
			t.Fatalf("implausible snapshot: %+v", ms)
		}
		if _, seen := sumAt[ms.Time]; !seen {
			times = append(times, ms.Time)
		}
		sumAt[ms.Time] += ms.Packets
		if ms.MediaBPS > 0 {
			sawMedia = true
		}
		if ms.RTTSamples > 0 {
			sawRTT = true
		}
	}
	if !sawMedia {
		t.Error("no snapshot reported a positive media bit rate")
	}
	if !sawRTT {
		t.Error("no snapshot reported RTT samples (copy-rich trace should)")
	}
	var prev uint64
	for i, ts := range times {
		if i > 0 && ts.Sub(times[i-1]) < interval {
			t.Errorf("snapshots %v and %v closer than the interval", times[i-1], ts)
		}
		if sumAt[ts] < prev {
			t.Errorf("cumulative packets regressed at %v: %d < %d", ts, sumAt[ts], prev)
		}
		prev = sumAt[ts]
	}
}

// TestSnapshotAfterFinish checks Snapshot remains callable once the
// parallel pipeline has merged (it reads the merged analyzer).
func TestSnapshotAfterFinish(t *testing.T) {
	tr, opts := seededTrace(t, 6)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	pa := NewParallelAnalyzer(cfg, 2)
	tr.feed(pa.Packet)
	pa.Finish()
	end := tr.at[len(tr.at)-1]
	snaps := pa.Snapshot(end, 10*time.Second)
	if len(snaps) == 0 {
		t.Fatal("no snapshot from finished analyzer")
	}
	seq := NewAnalyzer(cfg)
	tr.feed(seq.Packet)
	seq.Finish()
	want := seq.Snapshot(end, 10*time.Second)
	got, _ := json.Marshal(snaps)
	wantB, _ := json.Marshal(want)
	if !bytes.Equal(got, wantB) {
		t.Errorf("post-finish snapshot diverges:\n%s\n%s", got, wantB)
	}
}
