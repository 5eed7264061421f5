package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"zoomlens/internal/core"
	"zoomlens/internal/obs"
	"zoomlens/internal/pcap"
	"zoomlens/internal/statecodec"
	"zoomlens/internal/trace"
)

// WriteDelta is StartDelta and Wait, and when the record did not land it
// writes the full that re-anchors the chain before it returns.
func (c *Checkpointer) WriteDelta(eng core.Engine) error {
	err := errors.Join(c.StartDelta(eng), c.Wait())
	if c.needFull {
		return c.WriteFull(eng)
	}
	return err
}

// ckWorkload returns a deterministic packet workload (timestamps +
// frames, Data copied out of the generator's reused buffer) and the
// matching engine config.
func ckWorkload(t testing.TB, packets int) ([]*pcap.Record, core.Config) {
	t.Helper()
	cfg := trace.DefaultStreamConfig()
	cfg.Streams = 50
	cfg.Packets = packets
	gen, err := trace.NewStreamGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*pcap.Record
	var rec pcap.Record
	for gen.Next(&rec) == nil {
		cp := rec
		cp.Data = append([]byte(nil), rec.Data...)
		recs = append(recs, &cp)
	}
	return recs, core.Config{
		ZoomNetworks:   []netip.Prefix{cfg.ZoomNet},
		CampusNetworks: []netip.Prefix{cfg.CampusNet},
	}
}

func feedRecords(eng core.Engine, recs []*pcap.Record, from, to int) {
	for _, r := range recs[from:to] {
		eng.Packet(r.Timestamp, r.Data)
	}
}

// engineFingerprint is the state-equality oracle: the full checkpoint
// encoding is deterministic and complete, so byte equality is state
// equality.
func engineFingerprint(t *testing.T, eng core.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointerTmpCleanup(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "state.zlcp")
	orphans := []string{
		base + ".tmp-1234",
		base + ".00000003.full.zlcp.tmp-999",
	}
	for _, name := range orphans {
		if err := os.WriteFile(name, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Unrelated siblings must survive the sweep: another base's, and the
	// in-flight temp files of another chain and of a window report whose
	// names merely start with this base.
	unrelated := []string{
		filepath.Join(dir, "other.tmp-1"),
		base + "2.00000003.tmp-123",
		base + "-window-0001.json.tmp-9",
	}
	for _, name := range unrelated {
		if err := os.WriteFile(name, []byte("keep"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ck := NewCheckpointer(base, 2, nil)
	if ck.TmpCleaned != len(orphans) {
		t.Errorf("TmpCleaned = %d, want %d", ck.TmpCleaned, len(orphans))
	}
	for _, name := range orphans {
		if _, err := os.Stat(name); err == nil {
			t.Errorf("orphan %s survived startup sweep", filepath.Base(name))
		}
	}
	for _, name := range unrelated {
		if _, err := os.Stat(name); err != nil {
			t.Errorf("unrelated sibling removed: %v", err)
		}
	}
}

// TestCheckpointerFullOnlyRetention is the chain a run without
// -checkpoint-delta leaves: full records only. keep fulls survive, older
// ones are pruned, nothing is ever written at the base path itself, a
// torn newest record falls back (and is counted), and a record copied
// out by hand restores as one file with nothing beside it consulted.
func TestCheckpointerFullOnlyRetention(t *testing.T) {
	recs, cfg := ckWorkload(t, 800)
	dir := t.TempDir()
	base := filepath.Join(dir, "state.zlcp")

	eng := core.NewAnalyzer(cfg)
	ck := NewCheckpointer(base, 3, nil)
	cuts := []int{200, 400, 600, 800}
	prev := 0
	for _, cut := range cuts {
		feedRecords(eng, recs, prev, cut)
		if err := ck.WriteFull(eng); err != nil {
			t.Fatal(err)
		}
		prev = cut
	}
	want := engineFingerprint(t, eng)
	if ck.Fulls != len(cuts) || ck.Deltas != 0 {
		t.Fatalf("wrote %d fulls / %d deltas, want %d / 0", ck.Fulls, ck.Deltas, len(cuts))
	}

	// Four fulls written at keep 3: seq 1-3 on disk, seq 0 pruned, and
	// no file under the base name.
	var got []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		got = append(got, e.Name())
	}
	wantNames := []string{"state.zlcp.00000001.full.zlcp", "state.zlcp.00000002.full.zlcp", "state.zlcp.00000003.full.zlcp"}
	if !slices.Equal(got, wantNames) {
		t.Fatalf("directory holds %v, want %v", got, wantNames)
	}
	newest := filepath.Join(dir, wantNames[2])

	// Pristine restore lands on the newest record.
	restored, fallbacks, err := RestoreEngine(base, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fallbacks != 0 {
		t.Errorf("pristine restore took %d fallbacks", fallbacks)
	}
	if !bytes.Equal(engineFingerprint(t, restored), want) {
		t.Error("restored state differs from live state")
	}

	// A record copied out by hand restores as a single file.
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	single := filepath.Join(t.TempDir(), "copied.zlcp")
	if err := os.WriteFile(single, data, 0o644); err != nil {
		t.Fatal(err)
	}
	restored, fallbacks, err = RestoreEngine(single, cfg, nil)
	if err != nil || fallbacks != 0 {
		t.Fatalf("single-file restore: %v (%d fallbacks)", err, fallbacks)
	}
	if !bytes.Equal(engineFingerprint(t, restored), want) {
		t.Error("single-file restore differs from live state")
	}
	// Torn, it fails outright: a file path names that file alone, even
	// with a valid chain of the same base name sitting beside it.
	if err := os.WriteFile(base, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RestoreEngine(base, cfg, nil); err == nil {
		t.Error("torn single file restored (fell through to the chain beside it)")
	}
	if err := os.Remove(base); err != nil {
		t.Fatal(err)
	}

	// Tear the newest record: restore must fall back to the one before
	// it (the state as of the third cut).
	if err := os.Truncate(newest, 10); err != nil {
		t.Fatal(err)
	}
	restored, fallbacks, err = RestoreEngine(base, cfg, nil)
	if err != nil {
		t.Fatalf("restore with torn newest record: %v", err)
	}
	if fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", fallbacks)
	}
	ref := core.NewAnalyzer(cfg)
	feedRecords(ref, recs, 0, cuts[2])
	if !bytes.Equal(engineFingerprint(t, restored), engineFingerprint(t, ref)) {
		t.Error("fallback restore differs from reference state at the older cut")
	}

	// Every record torn: restore must fail, reporting the first error.
	for _, name := range wantNames[:2] {
		if err := os.Truncate(filepath.Join(dir, name), 10); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := RestoreEngine(base, cfg, nil); err == nil {
		t.Fatal("restore succeeded with every record torn")
	}
}

func TestCheckpointerChainPrune(t *testing.T) {
	recs, cfg := ckWorkload(t, 900)
	dir := t.TempDir()
	base := filepath.Join(dir, "state.zlcp")

	eng := core.NewAnalyzer(cfg)
	ck := NewCheckpointer(base, 2, nil)
	// full, delta, delta, full, delta, full — pruning after the last full
	// must keep the two newest fulls and the deltas between them.
	plan := []struct {
		cut  int
		full bool
	}{
		{100, true}, {200, false}, {300, false},
		{400, true}, {500, false},
		{600, true},
	}
	prev := 0
	for _, step := range plan {
		feedRecords(eng, recs, prev, step.cut)
		var err error
		if step.full {
			err = ck.WriteFull(eng)
		} else {
			err = ck.WriteDelta(eng)
		}
		if err != nil {
			t.Fatal(err)
		}
		prev = step.cut
	}
	if ck.Fulls != 3 || ck.Deltas != 3 {
		t.Fatalf("wrote %d fulls / %d deltas, want 3 / 3", ck.Fulls, ck.Deltas)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var fulls, deltas int
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), chainSuffixFull):
			fulls++
		case strings.HasSuffix(e.Name(), chainSuffixDelta):
			deltas++
		}
	}
	// Kept: fulls at seq 3 and 5 plus the delta at seq 4 between them;
	// pruned: seq 0-2.
	if fulls != 2 || deltas != 1 {
		t.Errorf("after prune: %d fulls / %d deltas on disk, want 2 / 1", fulls, deltas)
	}

	// The pruned chain must still restore to the live state.
	restored, fallbacks, err := RestoreEngine(base, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fallbacks != 0 {
		t.Errorf("fallbacks = %d, want 0", fallbacks)
	}
	if !bytes.Equal(engineFingerprint(t, restored), engineFingerprint(t, eng)) {
		t.Error("restore from pruned chain differs from live state")
	}
}

// TestCheckpointerDeltaFallsBackToFull pins the de-synchronization
// guard: asking for a delta from an engine that cannot produce one must
// transparently write a full snapshot instead.
func TestCheckpointerDeltaFallsBackToFull(t *testing.T) {
	recs, cfg := ckWorkload(t, 100)
	base := filepath.Join(t.TempDir(), "state.zlcp")

	eng := core.NewAnalyzer(cfg)
	feedRecords(eng, recs, 0, len(recs))
	ck := NewCheckpointer(base, 2, nil)
	// No full checkpoint yet, so the delta chain is unarmed.
	if err := ck.WriteDelta(eng); err != nil {
		t.Fatal(err)
	}
	if ck.Fulls != 1 || ck.Deltas != 0 {
		t.Errorf("unarmed WriteDelta wrote %d fulls / %d deltas, want 1 / 0", ck.Fulls, ck.Deltas)
	}
	if _, err := os.Stat(base + ".00000000" + chainSuffixFull); err != nil {
		t.Errorf("fallback full record missing: %v", err)
	}
}

// TestCheckpointerSeqResume: a restarted process must append to the
// chain it restored from, not overwrite it.
func TestCheckpointerSeqResume(t *testing.T) {
	recs, cfg := ckWorkload(t, 200)
	base := filepath.Join(t.TempDir(), "state.zlcp")

	eng := core.NewAnalyzer(cfg)
	feedRecords(eng, recs, 0, 100)
	ck := NewCheckpointer(base, 4, nil)
	if err := ck.WriteFull(eng); err != nil {
		t.Fatal(err)
	}
	feedRecords(eng, recs, 100, 200)
	if err := ck.WriteDelta(eng); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh Checkpointer over the same base must continue
	// at the next sequence number.
	ck2 := NewCheckpointer(base, 4, nil)
	if err := ck2.WriteFull(eng); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(base + ".00000002" + chainSuffixFull); err != nil {
		t.Errorf("resumed checkpointer did not continue the sequence: %v", err)
	}
	if _, err := os.Stat(base + ".00000000" + chainSuffixFull); err != nil {
		t.Errorf("resumed checkpointer clobbered the existing chain: %v", err)
	}
}

// TestChainRestoreTornFiles is the kill -9 matrix at the file layer: a
// chain damaged mid-write (truncated or bit-flipped tail records, torn
// interleaved fulls) must restore to the newest state the intact prefix
// proves, never error out while valid fulls remain, and never panic.
func TestChainRestoreTornFiles(t *testing.T) {
	recs, cfg := ckWorkload(t, 800)

	// build writes the canonical chain: full@0 (cut 200), delta@1
	// (cut 400), full@2 (cut 600), delta@3 (cut 800); returns the
	// fingerprints at each cut.
	cuts := []int{200, 400, 600, 800}
	build := func(t *testing.T) (string, [][]byte) {
		dir := t.TempDir()
		base := filepath.Join(dir, "state.zlcp")
		eng := core.NewAnalyzer(cfg)
		ck := NewCheckpointer(base, 4, nil)
		var prints [][]byte
		prev := 0
		for i, cut := range cuts {
			feedRecords(eng, recs, prev, cut)
			var err error
			if i%2 == 0 {
				err = ck.WriteFull(eng)
			} else {
				err = ck.WriteDelta(eng)
			}
			if err != nil {
				t.Fatal(err)
			}
			prints = append(prints, engineFingerprint(t, eng))
			prev = cut
		}
		return base, prints
	}
	name := func(base string, seq int, full bool) string {
		suffix := chainSuffixDelta
		if full {
			suffix = chainSuffixFull
		}
		return base + "." + "0000000" + string(rune('0'+seq)) + suffix
	}
	damage := map[string]func(t *testing.T, path string){
		"truncate_half": func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		},
		"flip_bit": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"empty": func(t *testing.T, path string) {
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
		},
	}
	// A torn trailer: the record lost its last 1, 2 or all 4 bytes of CRC,
	// so nothing says where its payload ends but the checksum.
	for _, lost := range []int64{1, 2, 4} {
		damage[fmt.Sprintf("torn_trailer_%d", lost)] = func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-lost); err != nil {
				t.Fatal(err)
			}
		}
	}

	for damageName, corrupt := range damage {
		t.Run(damageName, func(t *testing.T) {
			t.Run("newest_delta", func(t *testing.T) {
				base, prints := build(t)
				corrupt(t, name(base, 3, false))
				restored, fallbacks, err := RestoreEngine(base, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if fallbacks == 0 {
					t.Error("no fallback counted for the damaged record")
				}
				if !bytes.Equal(engineFingerprint(t, restored), prints[2]) {
					t.Error("restore did not land on the state before the damaged delta")
				}
			})
			t.Run("newest_full", func(t *testing.T) {
				// Damaging full@2 loses delta@3 with it: delta@3's base is
				// the state at full@2's encode, which includes packets only
				// that full captured. The restore must try full@0 + delta@1 +
				// delta@3, have the base check refuse delta@3, and settle on
				// the state after delta@1 — never error while a valid prefix
				// remains.
				base, prints := build(t)
				corrupt(t, name(base, 2, true))
				restored, fallbacks, err := RestoreEngine(base, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				// Two candidates fail: the damaged full, then the orphaned
				// delta.
				if fallbacks < 2 {
					t.Errorf("fallbacks = %d, want >= 2", fallbacks)
				}
				if !bytes.Equal(engineFingerprint(t, restored), prints[1]) {
					t.Error("restore did not settle on the newest reachable state")
				}
			})
			t.Run("everything_after_first_full", func(t *testing.T) {
				base, prints := build(t)
				corrupt(t, name(base, 1, false))
				corrupt(t, name(base, 2, true))
				corrupt(t, name(base, 3, false))
				restored, fallbacks, err := RestoreEngine(base, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if fallbacks == 0 {
					t.Error("no fallbacks counted")
				}
				if !bytes.Equal(engineFingerprint(t, restored), prints[0]) {
					t.Error("restore did not land on the oldest full")
				}
			})
			t.Run("every_full", func(t *testing.T) {
				base, _ := build(t)
				corrupt(t, name(base, 0, true))
				corrupt(t, name(base, 2, true))
				if _, _, err := RestoreEngine(base, cfg, nil); err == nil {
					t.Fatal("restore succeeded with every full damaged")
				}
			})
		})
	}

	t.Run("missing_chain", func(t *testing.T) {
		base := filepath.Join(t.TempDir(), "absent.zlcp")
		if _, _, err := RestoreEngine(base, cfg, nil); err == nil {
			t.Fatal("restore succeeded with no chain at all")
		}
	})
}

// TestCheckpointerWriterFailure: a record is encoded on the caller's
// goroutine and written behind it, so a disk failure arrives late. The
// chain directory goes away while a delta is in flight; the call that next
// waits for that record reports and counts the failure, the record after
// it is a full whatever was asked for, and at every point RestoreEngine on
// what the directory holds yields the last state that was made durable.
func TestCheckpointerWriterFailure(t *testing.T) {
	recs, cfg := ckWorkload(t, 500)

	// setup writes a full at packet 100 and a delta at 200, both durable.
	setup := func(t *testing.T) (eng *core.Analyzer, ck *Checkpointer, m *obs.CheckpointMetrics, dir, base string, durable []byte) {
		dir = filepath.Join(t.TempDir(), "chain")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		base = filepath.Join(dir, "state.zlcp")
		m = obs.NewCheckpointMetrics(obs.NewRegistry())
		eng, ck = core.NewAnalyzer(cfg), NewCheckpointer(base, 2, m)
		feedRecords(eng, recs, 0, 100)
		if err := ck.WriteFull(eng); err != nil {
			t.Fatal(err)
		}
		feedRecords(eng, recs, 100, 200)
		if err := ck.WriteDelta(eng); err != nil {
			t.Fatal(err)
		}
		return eng, ck, m, dir, base, bytes.Clone(engineFingerprint(t, eng))
	}
	restoresTo := func(t *testing.T, base string, want []byte, what string) {
		t.Helper()
		restored, _, err := RestoreEngine(base, cfg, nil)
		if err != nil {
			t.Fatalf("restore %s: %v", what, err)
		}
		if !bytes.Equal(engineFingerprint(t, restored), want) {
			t.Errorf("restore %s does not yield the last durable state", what)
		}
	}

	t.Run("surfaces_at_wait", func(t *testing.T) {
		eng, ck, m, dir, base, durable := setup(t)
		feedRecords(eng, recs, 200, 300)
		// engineFingerprint re-anchored the chain at packet 200 without
		// changing state, so this delta extends the durable one.
		if err := os.Rename(dir, dir+".gone"); err != nil {
			t.Fatal(err)
		}
		if err := ck.StartDelta(eng); err != nil {
			t.Fatalf("StartDelta with the disk gone: %v; the encode cannot fail, the write has not been waited for", err)
		}
		if err := ck.Wait(); err == nil {
			t.Fatal("Wait returned nil for a record whose directory is gone")
		}
		if ck.Fulls != 1 || ck.Deltas != 1 || m.Failed.Value() != 1 || m.DeltaWritten.Value() != 1 {
			t.Errorf("after the failure: %d fulls / %d deltas / %d failures (metric: %d deltas); want 1 / 1 / 1 (1): only durable records count",
				ck.Fulls, ck.Deltas, m.Failed.Value(), m.DeltaWritten.Value())
		}
		if err := os.Rename(dir+".gone", dir); err != nil {
			t.Fatal(err)
		}
		restoresTo(t, base, durable, "after the failed delta")

		feedRecords(eng, recs, 300, 400)
		if err := ck.WriteDelta(eng); err != nil {
			t.Fatalf("the record after a failure: %v", err)
		}
		if ck.Fulls != 2 || ck.Deltas != 1 {
			t.Errorf("the record after a failure: %d fulls / %d deltas, want 2 / 1 (a delta cannot extend a chain that lost a record)", ck.Fulls, ck.Deltas)
		}
		restoresTo(t, base, engineFingerprint(t, eng), "after the re-anchoring full")
	})

	t.Run("encode_fails_mid_record", func(t *testing.T) {
		eng, ck, m, _, base, durable := setup(t)
		before := listChain(base)
		// Three chunks reach the writer goroutine before the encode fails.
		if err := ck.StartFull(failingEncode{eng}); !errors.Is(err, errEncode) {
			t.Fatalf("StartFull = %v, want the encode's error", err)
		}
		if err := ck.Wait(); err != nil {
			t.Fatalf("Wait after a failed encode: %v; the encode reported it", err)
		}
		if got := listChain(base); !slices.Equal(got, before) {
			t.Errorf("chain after a failed encode: %v, want %v", got, before)
		}
		if left, _ := filepath.Glob(base + "*.tmp-*"); len(left) != 0 {
			t.Errorf("temp files left behind: %v", left)
		}
		if ck.Fulls != 1 || ck.Deltas != 1 || m.Failed.Value() != 1 {
			t.Errorf("after the failed encode: %d fulls / %d deltas / %d failures, want 1 / 1 / 1", ck.Fulls, ck.Deltas, m.Failed.Value())
		}
		restoresTo(t, base, durable, "after the failed encode")
		// The engine was not re-anchored, so a delta still extends the chain.
		feedRecords(eng, recs, 200, 300)
		if err := ck.WriteDelta(eng); err != nil {
			t.Fatal(err)
		}
		if ck.Fulls != 1 || ck.Deltas != 2 {
			t.Errorf("the record after a failed encode: %d fulls / %d deltas, want 1 / 2", ck.Fulls, ck.Deltas)
		}
		restoresTo(t, base, engineFingerprint(t, eng), "after the next delta")
	})

	t.Run("surfaces_at_next_start", func(t *testing.T) {
		eng, ck, m, _, base, _ := setup(t)
		feedRecords(eng, recs, 200, 300)
		// The next record's name is taken by a directory: its rename fails
		// however late the writer goroutine runs.
		if err := os.Mkdir(base+".00000002"+chainSuffixDelta, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := ck.StartDelta(eng); err != nil {
			t.Fatal(err)
		}
		feedRecords(eng, recs, 300, 400)
		if err := ck.StartDelta(eng); err == nil {
			t.Error("the call after a failed record reported nothing")
		}
		if m.Failed.Value() != 1 {
			t.Errorf("failures counted = %d, want 1", m.Failed.Value())
		}
		if err := os.Remove(base + ".00000002" + chainSuffixDelta); err != nil {
			t.Fatal(err)
		}
		if err := ck.Wait(); err != nil {
			t.Fatalf("the full after the failure: %v", err)
		}
		if ck.Fulls != 2 || ck.Deltas != 1 {
			t.Errorf("after recovery: %d fulls / %d deltas, want 2 / 1", ck.Fulls, ck.Deltas)
		}
		restoresTo(t, base, engineFingerprint(t, eng), "after the re-anchoring full")
		if left, _ := filepath.Glob(base + "*.tmp-*"); len(left) != 0 {
			t.Errorf("temp files left behind: %v", left)
		}
	})
}

var errEncode = errors.New("encode failed")

// failingEncode streams three chunks' worth of a full record, then fails.
type failingEncode struct{ core.Engine }

func (e failingEncode) Checkpoint(w io.Writer) error {
	w.Write(make([]byte, 3*statecodec.SpillSize))
	return errEncode
}

// TestShutdownFullAfterLandedFull: the driver's shutdown full is skipped
// only when the last record started was a full that landed and nothing
// touched the engine after it. A 2,001-packet trace at 1 ms spacing fires
// the 1 s full cadence on packets 1,001 and 2,001, the last. Either way
// the chain restores to the state the run ended in.
func TestShutdownFullAfterLandedFull(t *testing.T) {
	for _, tc := range []struct {
		name     string
		packets  int
		failLast bool     // the last periodic full's name is taken
		seqs     []uint64 // the fulls on disk
	}{
		{"last_record_was_a_full", 2001, false, []uint64{0, 1}},
		{"records_after_it", 2005, false, []uint64{0, 1, 2}},
		{"that_full_failed", 2001, true, []uint64{0, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			next, nets := genSource(t, tc.packets)
			f := &Flags{
				Obs:                &ObsFlags{},
				Workers:            1,
				Checkpoint:         filepath.Join(dir, "state.zlcp"),
				CheckpointInterval: time.Second,
				CheckpointKeep:     10,
			}
			taken := f.Checkpoint + ".00000001" + chainSuffixFull
			if tc.failLast {
				if err := os.Mkdir(taken, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			run, err := f.RunFrom(nets, next, func() bool { return false })
			if err != nil {
				t.Fatal(err)
			}
			run.Close()
			if tc.failLast {
				if err := os.Remove(taken); err != nil {
					t.Fatal(err)
				}
			}
			var seqs []uint64
			for _, cf := range listChain(f.Checkpoint) {
				if !cf.full {
					t.Errorf("delta %s in a chain of fulls", cf.name)
				}
				seqs = append(seqs, cf.seq)
			}
			if ck := run.Checkpointer; !slices.Equal(seqs, tc.seqs) || ck.Fulls != len(tc.seqs) {
				t.Errorf("fulls on disk %v, %d counted; want %v", seqs, ck.Fulls, tc.seqs)
			}
			restored, fallbacks, err := RestoreEngine(f.Checkpoint, core.Config{ZoomNetworks: nets}, nil)
			if err != nil || fallbacks != 0 {
				t.Fatalf("restoring the chain: %d fallbacks, err %v", fallbacks, err)
			}
			restored.Finish()
			if got, want := restored.Result().Counters(), run.Analyzer.Counters(); got != want {
				t.Errorf("the chain restores to\n%+v\nthe run ended at\n%+v", got, want)
			}
		})
	}
}

// TestCheckpointRecordsOverlapIngest runs the driver with a delta cadence
// of two packets, so nearly every record is still being written when the
// next is due and the writer goroutine reads the chain's buffer while the
// read loop ingests: under -race this is the test of who may touch that
// buffer when. What lands must still be a chain: it restores, without a
// fallback, to the state the run ended in.
func TestCheckpointRecordsOverlapIngest(t *testing.T) {
	for _, workers := range []int{1, 4} {
		next, nets := genSource(t, 1200)
		f := soakFlags(t.TempDir())
		f.Workers = workers
		f.CheckpointInterval, f.CheckpointDelta, f.Rotate = 100*time.Millisecond, 2*time.Millisecond, 0
		run, err := f.RunFrom(nets, next, func() bool { return false })
		if err != nil {
			t.Fatal(err)
		}
		run.Close()
		ck := run.Checkpointer
		if ck.Deltas < 200 || ck.Fulls < 4 {
			t.Errorf("workers=%d: %d fulls / %d deltas durable, want a record every other packet", workers, ck.Fulls, ck.Deltas)
		}
		restored, fallbacks, err := RestoreEngine(f.Checkpoint, core.Config{ZoomNetworks: nets}, nil)
		if err != nil || fallbacks != 0 {
			t.Fatalf("workers=%d: restoring the chain: %d fallbacks, err %v", workers, fallbacks, err)
		}
		restored.Finish()
		if got, want := restored.Result().Counters(), run.Analyzer.Counters(); got != want {
			t.Errorf("workers=%d: the chain restores to\n%+v\nthe run ended at\n%+v", workers, got, want)
		}
	}
}
