package zoomlens

// Differential test for the engine layer: the same serialized capture,
// replayed through the zero-copy ingest loop at several worker counts,
// must render byte-identical reports. This is the end-to-end guard for
// the raw-scan dispatcher and the batch transport — a bug in either
// shows up as a diverging stream table or metric series here.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"zoomlens/internal/pcap"
	"zoomlens/internal/rtcproto"
)

// renderReport flattens everything the CLIs print into one string:
// summary, per-stream loss stats, series and talk time, RTT samples,
// per-flow counters, meetings, and participant roll-ups.
func renderReport(a *Analyzer) string {
	var b strings.Builder
	s := a.Summary()
	fmt.Fprintf(&b, "summary %+v\n", s)
	for _, seg := range a.Streams() {
		id, sm := seg.ID, seg.Metrics
		ls := sm.LossStats()
		fmt.Fprintf(&b, "stream %d %s %s %s pkts=%d media=%d frames=%d loss=%+v\n",
			id.Key.SSRC, rtcproto.NameOf(id.Key.Proto), id.Key.Type, id.Flow, sm.Packets, sm.MediaBytes, sm.FramesTotal(), ls)
		for _, smp := range samplesOf(sm.MediaRate) {
			fmt.Fprintf(&b, "  rate %s %.6f\n", smp.Time().Format("15:04:05.000000000"), smp.Value)
		}
		for _, smp := range samplesOf(sm.JitterMS) {
			fmt.Fprintf(&b, "  jit %s %.6f\n", smp.Time().Format("15:04:05.000000000"), smp.Value)
		}
		if sm.Talk != nil {
			fmt.Fprintf(&b, "  talk %+v\n", sm.Talk.Stats())
			for _, seg := range sm.Talk.Segments() {
				fmt.Fprintf(&b, "  spoke %s..%s\n", seg.Start.Format("15:04:05.000"), seg.End.Format("15:04:05.000"))
			}
		}
	}
	for i := range a.Copies.Samples.Len() {
		smp := a.Copies.Samples.At(i)
		fmt.Fprintf(&b, "rtt %s %v %d\n", smp.Time().Format("15:04:05.000"), smp.RTT, smp.Unified)
	}
	for _, fl := range a.Flows.Flows() {
		fmt.Fprintf(&b, "flow %s pkts=%d bytes=%d sb=%d p2p=%d\n",
			fl.Flow, fl.Packets, fl.WireBytes, fl.ServerBased, fl.P2P)
	}
	for _, m := range a.Meetings() {
		fmt.Fprintf(&b, "meeting %d %s %s..%s participants=%d streams=%d\n",
			m.ID, rtcproto.NameOf(m.Proto), m.Start.Format("15:04:05"), m.End.Format("15:04:05"), m.Participants(), len(m.Streams))
	}
	for _, rep := range a.MeetingReports() {
		for _, p := range rep.Participants {
			fmt.Fprintf(&b, "participant %d %s %+v\n", rep.Meeting.ID, p.Client, p)
		}
	}
	return b.String()
}

// replayCapture runs a serialized capture through the zero-copy ingest
// loop into a sequential (workers 1) or sharded engine and returns the
// finished result.
func replayCapture(t *testing.T, serialized []byte, cfg Config, workers int) *Analyzer {
	t.Helper()
	s, err := pcap.OpenStream(bytes.NewReader(serialized))
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngineFor(cfg, workers)
	var rec pcap.Record
	for {
		err := s.NextInto(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		eng.Packet(rec.Timestamp, rec.Data)
	}
	eng.Finish()
	return eng.Result()
}

func TestIngestDifferentialWorkers(t *testing.T) {
	raw, ngRaw := ingestTrace(t)
	_, _, cfg := benchTrace(t)

	replay := func(serialized []byte, workers int) string {
		return renderReport(replayCapture(t, serialized, cfg, workers))
	}

	want := replay(raw, 1)
	if len(want) == 0 || !strings.Contains(want, "stream ") {
		t.Fatalf("sequential report is empty or streamless:\n%.400s", want)
	}
	for _, workers := range []int{2, 4, 8} {
		if got := replay(raw, workers); got != want {
			t.Errorf("workers=%d report diverges from sequential (lens %d vs %d)",
				workers, len(got), len(want))
		}
	}
	// The pcapng serialization of the same trace must also be invisible
	// to the report.
	if got := replay(ngRaw, 4); got != want {
		t.Error("pcapng replay diverges from classic pcap replay")
	}
}
