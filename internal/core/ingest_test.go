package core

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"zoomlens/internal/capture"
	"zoomlens/internal/pcap"
)

// TestIngestContainsFrontEndPanicPerFrame holds Ingest's one panic guard
// per run to the per-frame guard it replaced: a front-end panic on record
// 137 of a 300-record run is counted once, quarantines exactly that
// frame, and the run resumes at record 138, so the report equals the
// report of the same input without that frame, apart from the counters
// that saw it.
func TestIngestContainsFrontEndPanicPerFrame(t *testing.T) {
	const poisoned, runLen = 137, 300
	tr, opts := seededTrace(t, 4)
	if len(tr.frames) < runLen {
		t.Fatalf("trace has %d frames, want %d", len(tr.frames), runLen)
	}
	recs := make([]pcap.Record, runLen)
	for i := range recs {
		recs[i] = pcap.Record{Timestamp: tr.at[i], Data: tr.frames[i]}
	}
	// One record becomes a non-first fragment of a Zoom UDP datagram: kept
	// by the filter, with no transport header for a shard to observe.
	zoom := capture.NewPrefixSet([]netip.Prefix{opts.ZoomNet})
	fragment := -1
	for i := poisoned + 1; i < runLen && fragment < 0; i++ {
		var ri rawInfo
		if rawScan(recs[i].Data, &ri) && !ri.isTCP && (zoom.Contains(ri.src) || zoom.Contains(ri.dst)) {
			fragment = i
		}
	}
	if fragment < 0 {
		t.Fatal("no Zoom UDP record to fragment after the poisoned one")
	}
	frag := bytes.Clone(recs[fragment].Data)
	binary.BigEndian.PutUint16(frag[14+6:], 185) // offset 1,480 bytes, no more fragments
	recs[fragment].Data = frag
	without := append(append([]pcap.Record(nil), recs[:poisoned]...), recs[poisoned+1:]...)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}
	for _, workers := range []int{1, 2} {
		q := NewQuarantine(0)
		qcfg := cfg
		qcfg.Quarantine = q
		pa := NewParallelAnalyzer(qcfg, workers)
		routed := 0
		pa.frontEnd.panicHook = func(time.Time, []byte) {
			if routed++; routed == poisoned+1 {
				panic("injected front-end fault")
			}
		}
		pa.Ingest(recs)
		pa.Finish()
		got := pa.Result()

		ref := NewParallelAnalyzer(cfg, workers)
		ref.Ingest(without)
		ref.Finish()
		want := ref.Result()

		if want.UDPKeptPackets == 0 || want.TCPPackets == 0 {
			t.Fatalf("workers=%d: the run holds no kept UDP or TCP frame (%+v): the report compares nothing", workers, want.shardCounters)
		}
		if routed != runLen {
			t.Errorf("workers=%d: the front end routed %d records, want all %d", workers, routed, runLen)
		}
		if s := got.Summary(); s.PanicsRecovered != 1 || got.PanicsRecovered != 1 {
			t.Errorf("workers=%d: %d panics recovered (%d in the front end), want 1", workers, s.PanicsRecovered, got.PanicsRecovered)
		}
		if frames := q.Frames(); len(frames) != 1 || !bytes.Equal(frames[0].Frame, recs[poisoned].Data) || !frames[0].Time.Equal(recs[poisoned].Timestamp) {
			t.Errorf("workers=%d: quarantine holds %d frames, want exactly record %d", workers, len(frames), poisoned)
		}
		// Packets is also the eviction clock (evictDue): it counts every
		// frame offered, the poisoned one included.
		if got.Packets != runLen || got.Bytes != want.Bytes+uint64(len(recs[poisoned].Data)) {
			t.Errorf("workers=%d: %d packets / %d bytes counted, want %d / %d", workers, got.Packets, got.Bytes, runLen, want.Bytes+uint64(len(recs[poisoned].Data)))
		}
		if got.transportless != 1 {
			t.Errorf("workers=%d: %d kept frames without a transport header, want the one fragment", workers, got.transportless)
		}
		checkConservation(t, "poisoned run", got)
		checkConservation(t, "reference run", want)

		// Apart from the three counters that saw the poisoned frame, the
		// report is the report of the input without it.
		got.Packets, got.Bytes, got.PanicsRecovered = want.Packets, want.Bytes, want.PanicsRecovered
		if g, w := reportBytes(t, got), reportBytes(t, want); !bytes.Equal(g, w) {
			t.Errorf("workers=%d: report differs from the report without record %d", workers, poisoned)
		}
	}
}
