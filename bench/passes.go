package main

// Untraced in-process passes behind the core.* and cluster.* ledger rows:
// the real engines fed from the same loader as the ledger, timed per
// 1024-packet batch around the engine call only.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"zoomlens/internal/cluster"
	"zoomlens/internal/core"
	"zoomlens/internal/engine"
	"zoomlens/internal/pcap"
)

// batchReader loads a capture batchSize records at a time. Frames are
// copied into an arena because pcap's NextInto lends its buffer only
// until the next call, while decoded packets keep pointing into theirs.
type batchReader struct {
	src   *engine.Source
	arena []byte
	at    [batchSize]time.Time
	frame [batchSize][]byte
}

func openBatches(path string) (*batchReader, error) {
	src, err := engine.Open(path)
	if err != nil {
		return nil, err
	}
	return &batchReader{src: src}, nil
}

// next loads the next batch and returns its size; 0 at end of capture.
func (b *batchReader) next() (int, error) {
	var rec pcap.Record
	var lens [batchSize]int
	b.arena = b.arena[:0]
	n := 0
	for ; n < batchSize; n++ {
		if err := b.src.NextInto(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return 0, err
		}
		b.arena = append(b.arena, rec.Data...)
		b.at[n], lens[n] = rec.Timestamp, len(rec.Data)
	}
	// Cut frames only now: append may have moved the arena.
	for i, off := 0, 0; i < n; i++ {
		b.frame[i] = b.arena[off : off+lens[i] : off+lens[i]]
		off += lens[i]
	}
	return n, nil
}

// eachBatch feeds the whole capture to fn, batch by batch.
func eachBatch(path string, fn func(batch int, at []time.Time, frames [][]byte) error) error {
	b, err := openBatches(path)
	if err != nil {
		return err
	}
	defer b.src.Close()
	for i := 0; ; i++ {
		n, err := b.next()
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		if err := fn(i, b.at[:n], b.frame[:n]); err != nil {
			return err
		}
	}
}

// readPass iterates the capture and nothing else, for the read layer's
// allocation count.
func readPass(path string) (allocsPerPkt float64, err error) {
	s, err := engine.Open(path)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	var before, after runtime.MemStats
	var rec pcap.Record
	n := 0
	runtime.ReadMemStats(&before)
	for {
		if err := s.NextInto(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return 0, err
		}
		n++
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// engineTimes is one engine's pass over a capture.
type engineTimes struct {
	packets       int
	inPacket      time.Duration // inside Engine.Packet
	finish        time.Duration // Engine.Finish
	wall          time.Duration // whole pass, loading included
	allocs, bytes uint64
}

// enginePass feeds the capture through eng and finishes it.
func enginePass(path string, eng core.Engine) (engineTimes, error) {
	var t engineTimes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := eachBatch(path, func(_ int, at []time.Time, frames [][]byte) error {
		t0 := time.Now()
		for i, f := range frames {
			eng.Packet(at[i], f)
		}
		t.inPacket += time.Since(t0)
		t.packets += len(frames)
		return nil
	})
	if err != nil {
		core.Discard(eng)
		return t, err
	}
	t0 := time.Now()
	eng.Finish()
	t.finish = time.Since(t0)
	t.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	t.allocs, t.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	return t, nil
}

// splitPass routes the capture through the cluster splitter into
// discarding writers and returns the time spent inside Splitter.Packet.
func splitPass(path string, cfg core.Config) (time.Duration, error) {
	sp := cluster.NewSplitter(cfg, 2)
	for i := 0; i < sp.Workers(); i++ {
		if err := sp.Attach(i, io.Discard); err != nil {
			return 0, err
		}
	}
	var in time.Duration
	err := eachBatch(path, func(_ int, at []time.Time, frames [][]byte) error {
		t0 := time.Now()
		for i, f := range frames {
			if err := sp.Packet(at[i], f); err != nil {
				return err
			}
		}
		in += time.Since(t0)
		return nil
	})
	return in, err
}

// stateTimes are the checkpoint-path samples of one statePass.
type stateTimes struct {
	fullMS, fullBytes, deltaMS, deltaBytes, restoreMS []float64
	rotateMS                                          float64
}

// statePass feeds the capture through a sequential analyzer and, on the
// way, takes a full checkpoint (and restores it) at 40/60/80 % of the
// file, a delta checkpoint 5 % after each full, and rotates the report
// window at 90 %.
func statePass(path string, cfg core.Config, packets int) (stateTimes, error) {
	var t stateTimes
	batches := (packets + batchSize - 1) / batchSize
	a := core.NewAnalyzer(cfg)
	var buf bytes.Buffer
	err := eachBatch(path, func(batch int, at []time.Time, frames [][]byte) error {
		for i, f := range frames {
			a.Packet(at[i], f)
		}
		for _, pct := range []int{40, 60, 80} {
			switch batch {
			case batches * pct / 100:
				buf.Reset()
				t0 := time.Now()
				if err := a.Checkpoint(&buf); err != nil {
					return fmt.Errorf("full checkpoint: %w", err)
				}
				t.fullMS = append(t.fullMS, ms(time.Since(t0)))
				t.fullBytes = append(t.fullBytes, float64(buf.Len()))
				t0 = time.Now()
				restored, err := core.RestoreAnalyzer(bytes.NewReader(buf.Bytes()), cfg)
				if err != nil {
					return fmt.Errorf("restore: %w", err)
				}
				t.restoreMS = append(t.restoreMS, ms(time.Since(t0)))
				core.Discard(restored)
			case batches * (pct + 5) / 100:
				buf.Reset()
				t0 := time.Now()
				if err := a.CheckpointDelta(&buf); err != nil {
					return fmt.Errorf("delta checkpoint: %w", err)
				}
				t.deltaMS = append(t.deltaMS, ms(time.Since(t0)))
				t.deltaBytes = append(t.deltaBytes, float64(buf.Len()))
			}
		}
		if batch == batches*90/100 {
			t0 := time.Now()
			a.Rotate(at[len(at)-1])
			t.rotateMS = ms(time.Since(t0))
		}
		return nil
	})
	if err == nil && (len(t.fullMS) == 0 || len(t.deltaMS) == 0) {
		err = fmt.Errorf("capture too short for the checkpoint schedule (%d batches)", batches)
	}
	return t, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
