package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net/netip"
	"testing"
	"time"
)

// FuzzCheckpointRestore feeds arbitrary bytes to the checkpoint decoder.
// The contract under fuzzing mirrors the packet parsers': never panic,
// and never hand back a partially restored engine — RestoreAnalyzer
// either returns an error (and no engine) or an engine healthy enough to
// ingest packets, finish, and summarize.
func FuzzCheckpointRestore(f *testing.F) {
	tr, opts := seededTrace(f, 1)
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{opts.ZoomNet},
		CampusNetworks: []netip.Prefix{opts.CampusNet},
	}

	// Seed with real checkpoints: empty and mid-trace, sequential and
	// parallel, so mutation starts from every valid layout. A short
	// packet prefix keeps the seeds a few KB — the mutator and the
	// interesting-input minimizer rerun these shapes constantly, and a
	// restore costs a full engine per exec.
	for _, workers := range []int{1, 2} {
		for _, cut := range []int{0, 100} {
			var eng Engine
			if workers > 1 {
				eng = NewParallelAnalyzer(cfg, workers)
			} else {
				eng = NewAnalyzer(cfg)
			}
			for i := 0; i < cut; i++ {
				eng.Packet(tr.at[i], tr.frames[i])
			}
			var buf bytes.Buffer
			if err := eng.Checkpoint(&buf); err != nil {
				f.Fatal(err)
			}
			eng.Finish()
			f.Add(buf.Bytes())
		}
	}
	// Seed real delta records too: the mutator must explore the delta
	// decode path (kind 1), which ApplyDelta exercises below.
	for _, workers := range []int{1, 2} {
		var eng Engine
		if workers > 1 {
			eng = NewParallelAnalyzer(cfg, workers)
		} else {
			eng = NewAnalyzer(cfg)
		}
		for i := 0; i < 50; i++ {
			eng.Packet(tr.at[i], tr.frames[i])
		}
		if err := eng.Checkpoint(&bytes.Buffer{}); err != nil {
			f.Fatal(err)
		}
		for i := 50; i < 100; i++ {
			eng.Packet(tr.at[i], tr.frames[i])
		}
		var delta bytes.Buffer
		if err := eng.CheckpointDelta(&delta); err != nil {
			f.Fatal(err)
		}
		eng.Finish()
		f.Add(delta.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("ZLCP"))
	// Bare headers: each kind at the one supported file version, a stale
	// file version, an unknown kind.
	f.Add([]byte{'Z', 'L', 'C', 'P', checkpointFileVersion, engineKindFull})
	f.Add([]byte{'Z', 'L', 'C', 'P', checkpointFileVersion, engineKindDelta})
	f.Add([]byte{'Z', 'L', 'C', 'P', 2, engineKindFull})
	f.Add([]byte{'Z', 'L', 'C', 'P', checkpointFileVersion, 7})
	f.Add([]byte{'Z', 'L', 'C', 'P', 0xff})
	// Sealed records (valid CRC trailer), so mutation also starts past the
	// trailer check: the retired payload version 1, and the current
	// version with a one-worker payload cut short.
	seal := func(b []byte) []byte {
		return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
	}
	f.Add(seal([]byte{'Z', 'L', 'C', 'P', checkpointFileVersion, engineKindFull, 1, 2}))
	f.Add(seal([]byte{'Z', 'L', 'C', 'P', checkpointFileVersion, engineKindFull, stateVersion, 2, 0, 0, 0}))
	f.Add(seal([]byte{'Z', 'L', 'C', 'P', checkpointFileVersion, engineKindDelta, stateVersion, 2, 50, 0}))

	// deltaBase builds the armed engine every ApplyDelta attempt targets:
	// same trace prefix and a full checkpoint taken, so a valid mutated
	// delta could in principle apply cleanly.
	deltaBase := func(t *testing.T) Engine {
		eng := NewAnalyzer(cfg)
		for i := 0; i < 50; i++ {
			eng.Packet(tr.at[i], tr.frames[i])
		}
		if err := eng.Checkpoint(&bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	at := time.Unix(1700000000, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := RestoreAnalyzer(bytes.NewReader(data), cfg)
		if err == nil {
			// A nil-error engine must be fully wired: accept a packet,
			// finish, and produce a summary without panicking.
			eng.Packet(at, []byte{0x45})
			eng.Finish()
			_ = eng.Result().Summary()
		} else if eng != nil {
			t.Fatalf("restore failed (%v) but still returned an engine", err)
		}

		// The delta decoder has the same contract: error or a coherent
		// engine, never a panic. A failed apply may leave the target
		// half-mutated — the caller contract is to discard it — but it
		// must never have corrupted it badly enough to crash teardown.
		target := deltaBase(t)
		if aerr := target.ApplyDelta(bytes.NewReader(data)); aerr == nil {
			target.Packet(at, []byte{0x45})
		}
		target.Finish()
		_ = target.Result().Summary()
	})
}
