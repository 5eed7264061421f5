package metrics

import (
	"bytes"
	"slices"
	"testing"

	"zoomlens/internal/zoom"
)

// substreamPTs returns the payload types a stream has substreams for, in
// list order.
func substreamPTs(sm *StreamMetrics) []uint8 {
	out := make([]uint8, 0, len(sm.subs))
	for _, st := range sm.subs {
		out = append(out, st.pt)
	}
	return out
}

// TestManyPayloadTypesAgainstSeries: a stream spread over all 128 payload
// types — the hostile case for the substream list the packet path scans —
// keeps every answer of the reference, whose substreams are a map: the
// impaired video streams of TestFrameLogAgainstSeries with each frame
// moved to a payload type picked by its timestamp, so that substreams
// appear in no order and interleave, with a Finish mid-stream. The list
// must come out ascending, and a record must restore to the same bytes.
func TestManyPayloadTypesAgainstSeries(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		packets := generateStream(zoom.TypeVideo, seed, 1200, true)
		for i := range packets {
			if pt := &packets[i].pkt.PayloadType; *pt == zoom.PTVideoMain {
				*pt = uint8(packets[i].pkt.Timestamp / 1500 * 37 % 128)
			}
		}
		sm := against(t, zoom.TypeVideo, packets, len(packets)/2)
		pts := substreamPTs(sm)
		if len(pts) != 128 || !slices.IsSorted(pts) {
			t.Fatalf("seed %d: %d payload types, ascending %v; want all 128 in order", seed, len(pts), slices.IsSorted(pts))
		}
		full := streamRecord(sm)
		restored := new(StreamMetrics)
		if err := applyStream(restored, full); err != nil {
			t.Fatalf("seed %d: full record onto a fresh stream: %v", seed, err)
		}
		if again := streamRecord(restored); !bytes.Equal(again, full) || restored.LossStats() != sm.LossStats() {
			t.Errorf("seed %d: full → fresh → full differs (%d vs %d bytes), loss %+v vs %+v", seed, len(again), len(full), restored.LossStats(), sm.LossStats())
		}
	}
}
