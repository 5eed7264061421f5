package rtp

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"zoomlens/internal/statecodec"
)

// seqModel is the reference SeqTracker is held to: it keeps every
// extended sequence number it was ever shown, so it tells a duplicate
// from a reordering however late the packet.
type seqModel struct {
	seen          map[int64]bool
	base, highest int64
	st            Stats
}

func (m *seqModel) observe(ext int64) SeqKind {
	m.st.Received++
	switch {
	case m.seen == nil:
		m.seen = map[int64]bool{ext: true}
		m.base, m.highest = ext, ext
		return SeqInOrder
	case m.seen[ext]:
		m.st.Duplicates++
		return SeqDuplicate
	}
	m.seen[ext] = true
	if ext < m.highest {
		m.st.Reordered++
		return SeqReordered
	}
	gap := ext > m.highest+1
	m.highest = ext
	if gap {
		return SeqGap
	}
	return SeqInOrder
}

func (m *seqModel) stats() Stats {
	st := m.st
	st.ExpectedSpan = uint64(m.highest - m.base + 1)
	if unique := st.Received - st.Duplicates; st.ExpectedSpan > unique {
		st.EstimatedLost = st.ExpectedSpan - unique
	}
	return st
}

// TestSeqTrackerAgainstModel walks random streams — loss, bursts of
// loss, duplication, reordering, several 16-bit wraps — whose late
// packets stay within the window of the highest sequence number, where
// the tracker must agree with a reference that never forgets, packet by
// packet and in its totals.
func TestSeqTrackerAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, model := NewSeqTracker(), new(seqModel)
		next := int64(rng.Intn(1 << 16)) // the sender's next new number
		for i := 0; i < 200_000; i++ {
			ext := next
			switch r := rng.Intn(100); {
			case i == 0:
				next++
			case r < 6: // a late or repeated packet, up to the window's far edge
				ext = model.highest - int64(rng.Intn(seqWindow))
				if r < 1 {
					ext = model.highest - (seqWindow - 1)
				}
				if ext < model.base {
					ext = model.base
				}
			case r < 9: // loss, now and then a long burst or a jump of a whole window and more
				next += int64(1 + rng.Intn(4))
				if rng.Intn(50) == 0 {
					next += int64(rng.Intn(3 * seqWindow))
				}
				ext = next
				next++
			default:
				next++
			}
			if got, want := tr.Observe(uint16(ext)), model.observe(ext); got != want {
				t.Fatalf("seed %d packet %d: seq %d (%d behind the highest) classified %v, the model says %v",
					seed, i, uint16(ext), model.highest-ext, got, want)
			}
		}
		if got, want := tr.Stats(), model.stats(); got != want {
			t.Errorf("seed %d: stats %+v, the model says %+v", seed, got, want)
		}
	}
}

// TestSeqTrackerWindowEdges pins the window's rule at its edges.
func TestSeqTrackerWindowEdges(t *testing.T) {
	run := func(from uint16, n int) *SeqTracker {
		tr := NewSeqTracker()
		for i := 0; i < n; i++ {
			tr.Observe(from + uint16(i))
		}
		return tr
	}
	t.Run("duplicate 1023 behind", func(t *testing.T) {
		tr := run(100, 1024) // highest 1123
		if k := tr.Observe(100); k != SeqDuplicate {
			t.Errorf("classified %v, want duplicate", k)
		}
	})
	t.Run("duplicate 1024 behind", func(t *testing.T) {
		tr := run(100, 1025) // highest 1124
		if k := tr.Observe(100); k != SeqReordered {
			t.Errorf("classified %v, want reordered: the window no longer covers it", k)
		}
		if st := tr.Stats(); st.Duplicates != 0 || st.Reordered != 1 || st.Received != 1026 {
			t.Errorf("stats %+v", st)
		}
	})
	t.Run("forward jump of 1023 keeps the window", func(t *testing.T) {
		tr := run(100, 10) // highest 109
		if k := tr.Observe(109 + 1023); k != SeqGap {
			t.Fatalf("jump classified %v", k)
		}
		if k := tr.Observe(109); k != SeqDuplicate {
			t.Errorf("old highest classified %v, want duplicate", k)
		}
		if k := tr.Observe(110); k != SeqReordered {
			t.Errorf("skipped number classified %v, want reordered", k)
		}
	})
	t.Run("forward jump of 1024 clears it", func(t *testing.T) {
		tr := run(100, 10)
		if k := tr.Observe(109 + 1024); k != SeqGap {
			t.Fatalf("jump classified %v", k)
		}
		if k := tr.Observe(109); k != SeqReordered {
			t.Errorf("old highest classified %v, want reordered", k)
		}
		if k := tr.Observe(109 + 1024); k != SeqDuplicate {
			t.Errorf("new highest classified %v, want duplicate", k)
		}
	})
	t.Run("forward jump of 40000", func(t *testing.T) {
		// More than half the sequence space ahead is, in serial
		// arithmetic, 25,536 behind: a reordering, and the highest stays.
		tr := run(100, 10)
		if k := tr.Observe(109 + 40000); k != SeqReordered {
			t.Fatalf("classified %v, want reordered", k)
		}
		if k := tr.Observe(110); k != SeqInOrder {
			t.Errorf("next in-order packet classified %v", k)
		}
		if st := tr.Stats(); st.ExpectedSpan != 11 || st.Reordered != 1 {
			t.Errorf("stats %+v", st)
		}
	})
	t.Run("reorder across 65535 to 0", func(t *testing.T) {
		tr := run(65530, 5) // 65530..65534
		for _, step := range []struct {
			seq  uint16
			want SeqKind
		}{{0, SeqGap}, {65535, SeqReordered}, {65535, SeqDuplicate}, {65534, SeqDuplicate}, {1, SeqInOrder}} {
			if k := tr.Observe(step.seq); k != step.want {
				t.Errorf("seq %d classified %v, want %v", step.seq, k, step.want)
			}
		}
		if st := tr.Stats(); st.ExpectedSpan != 8 || st.EstimatedLost != 0 || st.Duplicates != 2 {
			t.Errorf("stats %+v", st)
		}
	})
}

// TestSeqTrackerCodeWindow round-trips a young, a wrapped and a full
// window, checks a young stream's record stays small, and rejects the
// records no tracker writes.
func TestSeqTrackerCodeWindow(t *testing.T) {
	record := func(tr *SeqTracker) []byte {
		var w statecodec.Writer
		tr.Code(statecodec.NewEncoder(&w, true))
		return w.Bytes()
	}
	apply := func(rec []byte) (*SeqTracker, error) {
		tr := NewSeqTracker()
		r := statecodec.NewReader(rec)
		tr.Code(statecodec.NewDecoder(r))
		return tr, r.Err()
	}
	for _, tc := range []struct {
		name     string
		from     uint16
		n        int
		maxBytes int
	}{
		{"empty", 0, 0, 16},
		{"half a word", 7, 30, 24},
		{"half the window, across the wrap", 65300, 512, 128},
		{"full", 3, 5000, 192},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewSeqTracker()
			for i := 0; i < tc.n; i++ {
				if i%7 != 3 { // with holes, so the words are not all ones
					tr.Observe(tc.from + uint16(i))
				}
			}
			rec := record(tr)
			if len(rec) > tc.maxBytes {
				t.Errorf("record is %d bytes, want at most %d", len(rec), tc.maxBytes)
			}
			back, err := apply(rec)
			if err != nil {
				t.Fatal(err)
			}
			if *back != *tr {
				t.Fatalf("decoded tracker differs:\n got %+v\nwant %+v", *back, *tr)
			}
		})
	}

	tr := NewSeqTracker()
	tr.Observe(5)
	rec := record(tr)
	words := len(rec) - 2 // one word: its count, then a one-byte uvarint (bit 5)
	if rec[words] != 2 || rec[words+1] != 1<<5 {
		t.Fatalf("unexpected record layout % x", rec)
	}
	for name, hostile := range map[string][]byte{
		"17 words":              append(append([]byte{}, rec[:words]...), append([]byte{34}, make([]byte, 17)...)...),
		"negative word count":   append(append([]byte{}, rec[:words]...), 1),
		"highest number unseen": append(append([]byte{}, rec[:words]...), 2, 1<<4),
		"truncated":             rec[:len(rec)-1],
	} {
		if _, err := apply(hostile); err == nil {
			t.Errorf("%s: record accepted", name)
		}
	}
}

// FuzzSeqTracker feeds arbitrary sequence numbers: the tracker must not
// panic, every packet is either unique or a duplicate, and a packet it
// just saw is a duplicate.
func FuzzSeqTracker(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 2, 0xff, 0xff, 0, 0})
	f.Add([]byte{0xff, 0xfe, 0xff, 0xff, 0, 0, 0, 1, 0xff, 0xff})
	f.Add([]byte{0, 0, 4, 0, 0, 0, 8, 0, 0x9c, 0x40, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewSeqTracker()
		var classified [4]uint64
		for ; len(data) >= 2; data = data[2:] {
			seq := binary.BigEndian.Uint16(data)
			classified[tr.Observe(seq)]++
			again := tr.Observe(seq)
			classified[again]++
			if again != SeqDuplicate && SeqDiff(tr.maxSeq, seq) > -seqWindow {
				t.Fatalf("seq %d, just observed and inside the window, classified %v", seq, again)
			}
		}
		st := tr.Stats()
		unique := classified[SeqInOrder] + classified[SeqGap] + classified[SeqReordered]
		if st.Received != unique+st.Duplicates || st.Duplicates != classified[SeqDuplicate] || st.Reordered != classified[SeqReordered] {
			t.Fatalf("stats %+v do not add up to the classifications %v", st, classified)
		}
	})
}

func BenchmarkSeqTrackerObserve(b *testing.B) {
	// One stream with 1 % loss and 1 % same-sequence retransmissions a
	// few packets late.
	rng := rand.New(rand.NewSource(1))
	seqs := make([]uint16, 0, 1<<16)
	for s := uint16(0); len(seqs) < cap(seqs); s++ {
		switch rng.Intn(100) {
		case 0:
		case 1:
			seqs = append(seqs, s, s-uint16(rng.Intn(20)))
		default:
			seqs = append(seqs, s)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	tr := NewSeqTracker()
	for i := 0; i < b.N; i++ {
		tr.Observe(seqs[i%len(seqs)])
	}
}
