package features

import (
	"bytes"
	"math"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"zoomlens/internal/flow"
	"zoomlens/internal/layers"
	"zoomlens/internal/qos"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/zoom"
)

var t0 = time.Date(2022, 5, 5, 9, 0, 0, 0, time.UTC)

func testFlow(srcPort uint16) layers.FiveTuple {
	return layers.FiveTuple{
		Src:     netip.MustParseAddr("10.0.0.2"),
		Dst:     netip.MustParseAddr("144.195.1.1"),
		SrcPort: srcPort,
		DstPort: 8801,
		Proto:   17,
	}
}

// batchRows replays a recorded observation sequence through a fresh
// windower and returns every row.
func batchRows(obs []Obs, window time.Duration) []Row {
	w := NewWindower(window)
	for _, o := range obs {
		w.Observe(o)
	}
	w.FinishFlush()
	return w.Drain()
}

// steadyObs builds a steady 30 pps video stream over the given span.
func steadyObs(span time.Duration, ft layers.FiveTuple, ssrc uint32) []Obs {
	var obs []Obs
	at := t0
	seq := uint16(100)
	ts := uint32(9000)
	for at.Before(t0.Add(span)) {
		obs = append(obs, Obs{
			At:         at,
			Flow:       ft,
			Key:        zoom.StreamKey{SSRC: ssrc, Type: zoom.TypeVideo},
			WireLen:    970,
			PayloadLen: 900,
			PT:         98,
			RTPSeq:     seq,
			RTPTS:      ts,
		})
		at = at.Add(time.Second / 30)
		seq++
		ts += 3000
	}
	return obs
}

func TestWindowerSteadyStream(t *testing.T) {
	obs := steadyObs(5*time.Second, testFlow(50000), 42)
	rows := batchRows(obs, time.Second)
	if len(rows) < 5 || len(rows) > 6 {
		t.Fatalf("rows = %d for a 5 s stream at 1 s windows", len(rows))
	}
	mid := rows[2]
	if mid.ID.Key.SSRC != 42 || mid.ID.Key.Type != zoom.TypeVideo {
		t.Errorf("identity: %+v", mid.ID)
	}
	if mid.Packets != 30 {
		t.Errorf("packets = %d, want 30", mid.Packets)
	}
	if r := mid.PktRate(); r < 29 || r > 31 {
		t.Errorf("pkt rate = %v", r)
	}
	// 30 pps × 970 B ≈ 232.8 kbps wire.
	if k := mid.WireKbps(); k < 200 || k > 260 {
		t.Errorf("wire kbps = %v", k)
	}
	// Steady 33.3 ms spacing; the IAT gap crosses window edges, so mid
	// windows see a full complement of gaps.
	if mid.IATMeanMS < 32 || mid.IATMeanMS > 35 {
		t.Errorf("iat mean = %v", mid.IATMeanMS)
	}
	if mid.IATStdMS > 1 {
		t.Errorf("iat std = %v for a steady stream", mid.IATStdMS)
	}
	// Every gap exceeds BurstGap, so each packet is its own burst.
	if mid.Bursts != int(mid.Packets) || mid.MaxBurstPkts != 1 {
		t.Errorf("bursts = %d max = %d", mid.Bursts, mid.MaxBurstPkts)
	}
	if mid.SizeMeanB != 970 || mid.SizeStdB != 0 || mid.SizeMinB != 970 || mid.SizeMaxB != 970 {
		t.Errorf("sizes: mean=%v std=%v min=%d max=%d", mid.SizeMeanB, mid.SizeStdB, mid.SizeMinB, mid.SizeMaxB)
	}
	if mid.SizeEntropy != 0 {
		t.Errorf("entropy = %v for constant sizes", mid.SizeEntropy)
	}
	if mid.SeqLost != 0 || mid.SeqDup != 0 {
		t.Errorf("oracle loss = %d dup = %d on a clean stream", mid.SeqLost, mid.SeqDup)
	}
	if mid.FrameMarks != 30 {
		t.Errorf("frame marks = %d, want 30", mid.FrameMarks)
	}
	// Windows sit on the absolute grid.
	for _, r := range rows {
		if r.Start.UnixNano()%int64(time.Second) != 0 {
			t.Errorf("window start %v off the grid", r.Start)
		}
	}
}

func TestWindowerOracleColumns(t *testing.T) {
	obs := steadyObs(2*time.Second, testFlow(50000), 7)
	// Drop two packets and duplicate one within the first window.
	mangled := make([]Obs, 0, len(obs))
	for i, o := range obs {
		if i == 5 || i == 6 {
			continue // loss of 2
		}
		mangled = append(mangled, o)
		if i == 10 {
			mangled = append(mangled, o) // duplicate
		}
	}
	rows := batchRows(mangled, time.Second)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	first := rows[0]
	if first.SeqLost != 2 {
		t.Errorf("seq lost = %d, want 2", first.SeqLost)
	}
	if first.SeqDup != 1 {
		t.Errorf("seq dup = %d, want 1", first.SeqDup)
	}
}

func TestWindowerBursts(t *testing.T) {
	ft := testFlow(50001)
	var obs []Obs
	at := t0
	// 4 bursts of 5 packets at 1 ms spacing, bursts 100 ms apart.
	for b := 0; b < 4; b++ {
		for p := 0; p < 5; p++ {
			obs = append(obs, Obs{At: at, Flow: ft, Key: zoom.StreamKey{SSRC: 1, Type: zoom.TypeVideo}, WireLen: 1200, RTPSeq: uint16(b*5 + p), RTPTS: uint32(b)})
			at = at.Add(time.Millisecond)
		}
		at = at.Add(100 * time.Millisecond)
	}
	rows := batchRows(obs, time.Second)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Bursts != 4 || rows[0].MaxBurstPkts != 5 {
		t.Errorf("bursts = %d max = %d, want 4/5", rows[0].Bursts, rows[0].MaxBurstPkts)
	}
	if rows[0].FrameMarks != 4 {
		t.Errorf("frame marks = %d, want 4", rows[0].FrameMarks)
	}
}

func TestWindowerEntropy(t *testing.T) {
	ft := testFlow(50002)
	var obs []Obs
	at := t0
	// Half tiny, half large packets → two occupied log buckets → 1 bit.
	for i := 0; i < 40; i++ {
		size := 40
		if i%2 == 1 {
			size = 1200
		}
		obs = append(obs, Obs{At: at, Flow: ft, Key: zoom.StreamKey{SSRC: 2, Type: zoom.TypeAudio}, WireLen: size, RTPSeq: uint16(i)})
		at = at.Add(20 * time.Millisecond)
	}
	rows := batchRows(obs, time.Second)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if math.Abs(rows[0].SizeEntropy-1) > 1e-9 {
		t.Errorf("entropy = %v, want 1 bit", rows[0].SizeEntropy)
	}
}

// TestWindowerEmissionOrder verifies rows come out ordered by
// (window, stream identity) — the cross-tier determinism contract.
func TestWindowerEmissionOrder(t *testing.T) {
	a := steadyObs(3*time.Second, testFlow(50003), 9)
	b := steadyObs(3*time.Second, testFlow(40000), 3)
	// Interleave in capture order.
	var merged []Obs
	for i, j := 0, 0; i < len(a) || j < len(b); {
		if j >= len(b) || (i < len(a) && !a[i].At.After(b[j].At)) {
			merged = append(merged, a[i])
			i++
		} else {
			merged = append(merged, b[j])
			j++
		}
	}
	rows := batchRows(merged, time.Second)
	for i := 1; i < len(rows); i++ {
		p, c := rows[i-1], rows[i]
		if p.Start.After(c.Start) {
			t.Fatalf("window order violated at %d", i)
		}
		if p.Start.Equal(c.Start) && flow.CompareStreamID(p.ID, c.ID) >= 0 {
			t.Fatalf("stream order violated within window at %d", i)
		}
	}
}

// TestWindowerDrainTiming verifies that drain cadence never changes the
// emitted rows: draining after every observation concatenates to the
// same sequence as one final drain.
func TestWindowerDrainTiming(t *testing.T) {
	obs := steadyObs(4*time.Second, testFlow(50004), 11)
	want := batchRows(obs, time.Second)

	w := NewWindower(time.Second)
	var got []Row
	for _, o := range obs {
		w.Observe(o)
		got = append(got, w.Drain()...)
	}
	w.FinishFlush()
	got = append(got, w.Drain()...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drain cadence changed rows: got %d want %d", len(got), len(want))
	}
}

// windowerState is w's full record; restoreWindower decodes one onto a
// fresh windower, returning the decode error and the bytes left over.
func windowerState(w *Windower) []byte {
	var sw statecodec.Writer
	w.Code(statecodec.NewEncoder(&sw, true))
	return sw.Bytes()
}

func restoreWindower(b []byte) (*Windower, int, error) {
	r := statecodec.NewReader(b)
	w := NewWindower(0)
	w.Code(statecodec.NewDecoder(r))
	return w, r.Remaining(), r.Err()
}

func TestWindowerStateRoundTrip(t *testing.T) {
	obs := steadyObs(3500*time.Millisecond, testFlow(50005), 13)
	cut := len(obs) * 2 / 3

	// Uninterrupted run.
	want := batchRows(obs, time.Second)

	// Run to the cut, checkpoint mid-window with rows pending, restore,
	// run the rest.
	w := NewWindower(time.Second)
	for _, o := range obs[:cut] {
		w.Observe(o)
	}
	w2, left, err := restoreWindower(windowerState(w))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if left != 0 {
		t.Fatalf("restore left %d bytes", left)
	}
	for _, o := range obs[cut:] {
		w2.Observe(o)
	}
	w2.FinishFlush()
	got := w2.Drain()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restore changed rows: got %d want %d", len(got), len(want))
	}

	// Drain-before-checkpoint variant: rows drained pre-cut plus rows
	// drained post-restore must concatenate to the same sequence.
	w3 := NewWindower(time.Second)
	for _, o := range obs[:cut] {
		w3.Observe(o)
	}
	pre := w3.Drain()
	w4, _, err := restoreWindower(windowerState(w3))
	if err != nil {
		t.Fatalf("restore failed: %v", err)
	}
	for _, o := range obs[cut:] {
		w4.Observe(o)
	}
	w4.FinishFlush()
	all := append(append([]Row{}, pre...), w4.Drain()...)
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("drain+restore changed rows: got %d want %d", len(all), len(want))
	}
}

func TestRestoreWindowerRejectsTruncated(t *testing.T) {
	obs := steadyObs(2*time.Second, testFlow(50006), 17)
	w := NewWindower(time.Second)
	for _, o := range obs {
		w.Observe(o)
	}
	b := windowerState(w)
	for _, n := range []int{1, len(b) / 2, len(b) - 1} {
		if _, _, err := restoreWindower(b[:n]); err == nil {
			t.Fatalf("truncated state at %d bytes accepted", n)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	obs := steadyObs(3*time.Second, testFlow(50007), 21)
	rows := batchRows(obs, time.Second)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "#zoomlens-features v2\n") {
		t.Fatalf("missing version line: %q", out[:40])
	}
	if !strings.Contains(out, "proto,app,ssrc") {
		t.Fatal("header missing proto/app columns")
	}
	if !strings.Contains(out, ",zoom,") {
		t.Fatal("rows missing app name")
	}
	got, err := ReadCSV(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("round trip rows = %d, want %d", len(got), len(rows))
	}
	for i := range got {
		w := rows[i]
		w.ID.Flow = layers.FiveTuple{} // flow is documented as not round-tripped
		if !reflect.DeepEqual(got[i], w) {
			t.Fatalf("row %d mismatch:\n got %+v\nwant %+v", i, got[i], w)
		}
	}
}

func TestReadCSVRejects(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad version": "#zoomlens-features v1\n",
		"no header":   "#zoomlens-features v2\n",
		"bad header":  "#zoomlens-features v2\nwindow_start,nope\n",
		"short row":   "#zoomlens-features v2\n" + strings.Join(Columns, ",") + "\n1,2,3\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLabelFromQoS(t *testing.T) {
	cases := []struct {
		fps, lat float64
		want     Label
	}{
		{30, 50, LabelGood},
		{25, 100, LabelGood},
		{20, 100, LabelDegraded},
		{25, 200, LabelDegraded},
		{10, 100, LabelBad},
		{25, 400, LabelBad},
	}
	for _, c := range cases {
		e := qos.Entry{Stats: qos.Stats{VideoFPS: c.fps, LatencyMS: c.lat}}
		if got := LabelFromQoS(e, 30); got != c.want {
			t.Errorf("fps=%v lat=%v: got %v want %v", c.fps, c.lat, got, c.want)
		}
	}
	if LabelGood.String() != "good" || LabelBad.String() != "bad" {
		t.Error("label strings")
	}
}

func TestJoin(t *testing.T) {
	obs := steadyObs(5*time.Second, testFlow(50008), 23)
	rows := batchRows(obs, time.Second)
	var entries []qos.Entry
	for i := 0; i < 5; i++ {
		entries = append(entries, qos.Entry{
			Time:  t0.Add(time.Duration(i)*time.Second + 500*time.Millisecond),
			Stats: qos.Stats{VideoFPS: 30, LatencyMS: 40},
		})
	}
	labeled := Join(rows, entries, 30)
	if len(labeled) < 5 {
		t.Fatalf("labeled = %d", len(labeled))
	}
	for _, l := range labeled {
		if l.Label != LabelGood {
			t.Errorf("window %v labeled %v", l.Start, l.Label)
		}
	}
	if got := Join(nil, entries, 30); got != nil {
		t.Errorf("Join(nil) = %v", got)
	}
	// QoS entries from a different period: nothing joins.
	if got := Join(rows, []qos.Entry{{Time: t0.Add(time.Hour)}}, 30); len(got) != 0 {
		t.Errorf("joined = %d, want 0", len(got))
	}
}

// TestJoinWindowEdge is the regression test for the second-edge
// boundary: an entry exactly on a window edge labels the window the
// edge opens, never the one it closes; one nanosecond earlier labels
// the closing window.
func TestJoinWindowEdge(t *testing.T) {
	obs := steadyObs(2*time.Second, testFlow(50009), 29)
	rows := batchRows(obs, time.Second)
	if len(rows) < 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	edge := rows[1].Start // exactly on the edge between windows 0 and 1

	// Entry exactly on the edge must label window 1 only.
	labeled := Join(rows, []qos.Entry{{Time: edge, Stats: qos.Stats{VideoFPS: 30, LatencyMS: 40}}}, 30)
	if len(labeled) != 1 {
		t.Fatalf("edge entry labeled %d rows, want 1", len(labeled))
	}
	if !labeled[0].Start.Equal(rows[1].Start) {
		t.Errorf("edge entry labeled window starting %v, want %v (the window the edge opens)",
			labeled[0].Start, rows[1].Start)
	}

	// One nanosecond before the edge must label window 0 only.
	labeled = Join(rows, []qos.Entry{{Time: edge.Add(-time.Nanosecond), Stats: qos.Stats{VideoFPS: 1, LatencyMS: 900}}}, 30)
	if len(labeled) != 1 {
		t.Fatalf("pre-edge entry labeled %d rows, want 1", len(labeled))
	}
	if !labeled[0].Start.Equal(rows[0].Start) {
		t.Errorf("pre-edge entry labeled window starting %v, want %v (the closing window)",
			labeled[0].Start, rows[0].Start)
	}
	if labeled[0].Label != LabelBad {
		t.Errorf("label = %v, want bad", labeled[0].Label)
	}

	// Two entries in one window: last in input order wins.
	labeled = Join(rows, []qos.Entry{
		{Time: rows[0].Start.Add(100 * time.Millisecond), Stats: qos.Stats{VideoFPS: 30, LatencyMS: 40}},
		{Time: rows[0].Start.Add(900 * time.Millisecond), Stats: qos.Stats{VideoFPS: 1, LatencyMS: 900}},
	}, 30)
	if len(labeled) != 1 || labeled[0].Label != LabelBad {
		t.Fatalf("last-wins violated: %+v", labeled)
	}
}

func TestWindowerIdleEviction(t *testing.T) {
	ft := testFlow(50010)
	w := NewWindower(time.Second)
	// One packet, then a long silence driven by a second stream.
	w.Observe(Obs{At: t0, Flow: ft, Key: zoom.StreamKey{SSRC: 5, Type: zoom.TypeVideo}, WireLen: 100})
	other := testFlow(50011)
	at := t0
	for i := 0; i < idleEvictWindows+4; i++ {
		at = at.Add(time.Second)
		w.Observe(Obs{At: at, Flow: other, Key: zoom.StreamKey{SSRC: 6, Type: zoom.TypeVideo}, WireLen: 100, RTPSeq: uint16(i)})
	}
	if len(w.streams) != 1 {
		t.Fatalf("idle stream not evicted: %d streams live", len(w.streams))
	}
}

// TestWindowerHostileClock runs the windower under five capture clocks:
// monotone, a duplicate stamp, a step 1 s back, one 1 year ahead and one
// to the year 3000. The odd packet, marked by its size, goes after the
// 21st packet and again after the last. Every packet fed lands in exactly
// one row — but the year-3000 ones, which the nanosecond grid cannot hold:
// they land in none, and the rows are the clean capture's. (They once
// wrapped round to a 2022 window and were folded into its row.)
func TestWindowerHostileClock(t *testing.T) {
	const oddLen = 1234
	clean := steadyObs(5*time.Second, testFlow(50000), 42)
	want := batchRows(clean, time.Second)
	for _, clock := range []struct {
		name string
		odd  func(prev time.Time) time.Time
	}{
		{"monotone", func(prev time.Time) time.Time { return prev.Add(10 * time.Millisecond) }},
		{"duplicate", func(prev time.Time) time.Time { return prev }},
		{"1 s backward", func(prev time.Time) time.Time { return prev.Add(-time.Second) }},
		{"1 year forward", func(prev time.Time) time.Time { return prev.AddDate(1, 0, 0) }},
		{"year 3000", func(time.Time) time.Time { return time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC) }},
	} {
		t.Run(clock.name, func(t *testing.T) {
			var obs []Obs
			for i, o := range clean {
				obs = append(obs, o)
				if i == 20 || i == len(clean)-1 {
					o.At, o.WireLen = clock.odd(o.At), oddLen
					obs = append(obs, o)
				}
			}
			rows := batchRows(obs, time.Second)
			var pkts uint64
			for _, r := range rows {
				pkts += r.Packets
				if r.Start.Year() > 2262 || r.Start.UnixNano()%int64(time.Second) != 0 {
					t.Errorf("row starts at %v, off the grid", r.Start)
				}
			}
			if clock.name != "year 3000" {
				if pkts != uint64(len(obs)) {
					t.Errorf("rows hold %d packets, %d were fed", pkts, len(obs))
				}
				return
			}
			for _, r := range rows {
				if r.SizeMaxB == oddLen {
					t.Errorf("row at %v holds %d packets, year-3000 ones among them", r.Start, r.Packets)
				}
			}
			if !reflect.DeepEqual(rows, want) {
				t.Errorf("rows differ from the clean capture's: %d rows, %d packets (clean: %d rows)", len(rows), pkts, len(want))
			}
		})
	}
}
