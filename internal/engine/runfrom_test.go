package engine

import (
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"

	"zoomlens/internal/core"
	"zoomlens/internal/pcap"
	"zoomlens/internal/trace"
)

// leakCheck fails the test if the goroutine count does not return to
// the pre-run baseline. Shard workers, the signal relay, and the obs
// endpoint all shut down asynchronously, so it polls with a deadline
// and allows a small runtime-internal slack.
func leakCheck(t *testing.T, baseline int) {
	t.Helper()
	leakCheckSlack(t, baseline, 2)
}

// leakCheckSlack is leakCheck allowing slack goroutines over baseline.
func leakCheckSlack(t *testing.T, baseline, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s", n, baseline, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// soakFlags builds a RunFrom flag set over a temp dir: 4 shards,
// rotation, and a delta checkpoint chain — every shutdown path the
// driver has.
func soakFlags(dir string) *Flags {
	return &Flags{
		Obs:                &ObsFlags{},
		Workers:            4,
		Checkpoint:         filepath.Join(dir, "state.zlcp"),
		CheckpointInterval: 200 * time.Millisecond,
		CheckpointDelta:    50 * time.Millisecond,
		CheckpointKeep:     2,
		Rotate:             300 * time.Millisecond,
		RotateOut:          filepath.Join(dir, "window"),
	}
}

// genSource adapts a StreamGen to RunFrom's record source.
func genSource(t *testing.T, packets int) (func(*pcap.Record) error, []netip.Prefix) {
	t.Helper()
	cfg := trace.DefaultStreamConfig()
	cfg.Streams = 50
	cfg.Packets = packets
	cfg.Interval = time.Millisecond
	gen, err := trace.NewStreamGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gen.Next, []netip.Prefix{cfg.ZoomNet}
}

// TestRunFromShutdownLeaks drives engine.RunFrom through its shutdown
// paths — clean EOF with rotation mid-window, SIGINT mid-run during an
// active checkpoint chain, a record-source failure with live shards,
// and a failed restore — asserting after each that every goroutine the
// run started is gone.
func TestRunFromShutdownLeaks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: signal-driven shutdown test")
	}

	t.Run("clean_eof", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		next, nets := genSource(t, 2000)
		f := soakFlags(t.TempDir())
		run, err := f.RunFrom(nets, next, func() bool { return false })
		if err != nil {
			t.Fatal(err)
		}
		run.Close()
		if run.Rotations == 0 {
			t.Error("rotation never fired mid-run")
		}
		if run.Checkpointer.Fulls == 0 || run.Checkpointer.Deltas == 0 {
			t.Errorf("checkpoint chain inactive: %d fulls / %d deltas",
				run.Checkpointer.Fulls, run.Checkpointer.Deltas)
		}
		leakCheck(t, baseline)
	})

	t.Run("sigint_mid_run", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		next, nets := genSource(t, 1<<30) // only the signal ends this run
		f := soakFlags(t.TempDir())
		seen := 0
		interrupting := func(rec *pcap.Record) error {
			err := next(rec)
			if err == nil {
				seen++
				// After ~500 packets, deliver a real SIGINT to ourselves;
				// the driver's handler must drain shards, write the
				// shutdown checkpoint, and finish the partial report.
				if seen == 500 {
					syscall.Kill(os.Getpid(), syscall.SIGINT)
				}
			}
			return err
		}
		run, err := f.RunFrom(nets, interrupting, func() bool { return false })
		if err != nil {
			t.Fatal(err)
		}
		run.Close()
		if !run.Interrupted {
			t.Error("run not marked interrupted")
		}
		if run.Checkpointer.Fulls == 0 {
			t.Error("no shutdown checkpoint after SIGINT")
		}
		leakCheck(t, baseline)
	})

	t.Run("source_error_mid_run", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		next, nets := genSource(t, 1<<30)
		f := soakFlags(t.TempDir())
		n := 0
		failing := func(rec *pcap.Record) error {
			n++
			if n > 700 {
				return fmt.Errorf("injected capture fault")
			}
			return next(rec)
		}
		if _, err := f.RunFrom(nets, failing, func() bool { return false }); err == nil {
			t.Fatal("run succeeded past an injected source fault")
		}
		leakCheck(t, baseline)
	})

	t.Run("restore_failure", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		dir := t.TempDir()
		bad := filepath.Join(dir, "state.zlcp")
		if err := os.WriteFile(bad, []byte("ZLCPgarbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		next, nets := genSource(t, 100)
		f := soakFlags(dir)
		f.Restore = bad
		if _, err := f.RunFrom(nets, next, func() bool { return false }); err == nil {
			t.Fatal("run restored from garbage")
		}
		leakCheck(t, baseline)
	})
}

// TestInterruptStopsAtNextRecord: the read loop looks for a signal before
// every record, so a sparse live source is not read on for long after
// one. The source raises SIGINT while serving a record and serves each
// later record 50 ms apart; the driver may ask for at most one of them —
// the one it may already be waiting for when the signal lands. A loop
// that polled every N records would read on for up to N-1 more.
func TestInterruptStopsAtNextRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: signal-driven test")
	}
	next, nets := genSource(t, 1<<30)
	const at, most = 100, 20
	served, after := 0, 0
	sparse := func(rec *pcap.Record) error {
		if served >= at {
			if after++; after > most {
				return io.EOF
			}
			time.Sleep(50 * time.Millisecond)
		}
		served++
		if served == at {
			syscall.Kill(os.Getpid(), syscall.SIGINT)
		}
		return next(rec)
	}
	run, err := (&Flags{Obs: &ObsFlags{}, Workers: 1}).RunFrom(nets, sparse, func() bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	if !run.Interrupted {
		t.Error("run not marked interrupted")
	}
	if after > 1 {
		t.Errorf("the driver asked for %d records after the signal, want at most 1", after)
	}
}

// TestReconcilerShutdownLeaks: a parallel engine's reconciliation goroutine
// never outlives the engine, on any path that ends one. Each row runs two
// workers over more than three of the engine's periodic cuts (2^14
// packets each), so the reconciler has done real work, then ends the
// engine one way: Discard of a live engine, Finish, a restore whose delta
// fails to apply (RestoreEngine discards that engine and falls back to
// the full), RunFrom's teardown after a source error, and RunFrom's clean
// end. One leaked goroutine is the failure, so the check allows no slack;
// a warm-up run starts the process-wide signal relay first.
func TestReconcilerShutdownLeaks(t *testing.T) {
	const packets = 50_000
	leakCheck := func(t *testing.T, baseline int) {
		t.Helper()
		leakCheckSlack(t, baseline, 0)
	}
	warm, wnets := genSource(t, 10)
	if _, err := (&Flags{Obs: &ObsFlags{}, Workers: 2}).RunFrom(wnets, warm, func() bool { return false }); err != nil {
		t.Fatal(err)
	}
	feed := func(t *testing.T, eng core.Engine, n int) {
		next, _ := genSource(t, n)
		var rec pcap.Record
		for next(&rec) == nil {
			eng.Packet(rec.Timestamp, rec.Data)
		}
	}
	_, nets := genSource(t, 1)
	cfg := core.Config{ZoomNetworks: nets}

	t.Run("discard", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		eng := core.NewParallelAnalyzer(cfg, 2)
		feed(t, eng, packets)
		core.Discard(eng)
		leakCheck(t, baseline)
	})

	t.Run("finish", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		eng := core.NewParallelAnalyzer(cfg, 2)
		feed(t, eng, packets)
		eng.Finish()
		leakCheck(t, baseline)
	})

	t.Run("failed_delta_restore", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		path := filepath.Join(t.TempDir(), "ck")
		ck := NewCheckpointer(path, 2, nil)
		live := core.NewParallelAnalyzer(cfg, 2)
		feed(t, live, packets)
		for _, write := range []func(core.Engine) error{ck.WriteFull, ck.WriteDelta, ck.WriteDelta} {
			feed(t, live, 1000)
			if err := write(live); err != nil {
				t.Fatal(err)
			}
		}
		core.Discard(live)
		// Without the first delta the second one's base does not match, and
		// it fails after the restored engine has quiesced.
		chain := listChain(path)
		if len(chain) != 3 || chain[1].full {
			t.Fatalf("chain %+v, want a full and two deltas", chain)
		}
		if err := os.Remove(chain[1].name); err != nil {
			t.Fatal(err)
		}
		eng, fallbacks, err := RestoreEngine(path, cfg, nil)
		if err != nil || fallbacks != 1 {
			t.Fatalf("restore: %v after %d fallbacks, want the full after 1", err, fallbacks)
		}
		core.Discard(eng)
		leakCheck(t, baseline)
	})

	t.Run("source_error", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		next, nets := genSource(t, 1<<30)
		n := 0
		failing := func(rec *pcap.Record) error {
			if n++; n > packets {
				return fmt.Errorf("injected capture fault")
			}
			return next(rec)
		}
		f := &Flags{Obs: &ObsFlags{}, Workers: 2}
		if _, err := f.RunFrom(nets, failing, func() bool { return false }); err == nil {
			t.Fatal("run succeeded past an injected source fault")
		}
		leakCheck(t, baseline)
	})

	t.Run("clean_eof", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		next, nets := genSource(t, packets)
		f := &Flags{Obs: &ObsFlags{}, Workers: 2}
		run, err := f.RunFrom(nets, next, func() bool { return false })
		if err != nil {
			t.Fatal(err)
		}
		run.Close()
		leakCheck(t, baseline)
	})
}
