package zoomlens

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"go/build"
	"hash"
	"testing"
	"time"

	"zoomlens/internal/sim"
	"zoomlens/internal/trace"
)

// frameDigest hashes everything a monitor sees: per frame, its
// timestamp in nanoseconds, its length and its bytes.
type frameDigest struct {
	h      hash.Hash
	frames int
}

func newFrameDigest() *frameDigest { return &frameDigest{h: sha256.New()} }

func (d *frameDigest) tap(at time.Time, frame []byte) {
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(at.UnixNano()))
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(frame)))
	d.h.Write(hdr[:])
	d.h.Write(frame)
	d.frames++
}

func (d *frameDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// simulateCampus runs cfg's meeting schedule through trace.Runner in a
// default world started at cfg's start with cfg's seed, tapped by
// monitor.
func simulateCampus(cfg trace.Config, skipExternal bool, monitor sim.MonitorFunc) {
	opts := sim.DefaultOptions()
	opts.Seed = cfg.Seed
	opts.Start = cfg.Start
	opts.SkipExternalDelivery = skipExternal
	w := sim.NewWorld(opts)
	w.Monitor = monitor
	trace.NewRunner(cfg, w).Install(trace.Schedule(cfg))
	w.Run(cfg.Start.Add(cfg.Duration))
}

// minuteCampus is a one-minute seed-1 campus day at 60 meetings an hour
// at peak, with webrtcFrac of the meetings on the standards-RTC app.
func minuteCampus(webrtcFrac float64) trace.Config {
	cfg := trace.DefaultConfig()
	cfg.Duration = time.Minute
	cfg.MeetingsPerHourPeak = 60
	cfg.WebRTCFraction = webrtcFrac
	return cfg
}

// TestSimulatorGoldenDigests pins the simulator's output across versions,
// not only across two runs of one tree (TestDeterminismAcrossRuns): the
// digests were taken before the event engine and the tap-time framing
// were rewritten, and every accuracy figure scored against the simulator
// moves if they do. A change that means to alter the generated traffic
// must say so and re-pin them.
func TestSimulatorGoldenDigests(t *testing.T) {
	cases := []struct {
		name   string
		run    func(*frameDigest)
		frames int
		sha256 string
	}{
		{"campus", func(d *frameDigest) { simulateCampus(minuteCampus(0), false, d.tap) },
			90881, "1cd467d0ce92c5c596f3d71f3c77cd20d07a0d5d3706d81c7c58bc3f87e340c0"},
		{"campus-webrtc", func(d *frameDigest) { simulateCampus(minuteCampus(0.5), false, d.tap) },
			149885, "dd619ecd8b5c5d161349e9c73f970fcf8b6cf56de1a3f3b83a291925cb6421c1"},
		{"validation", func(d *frameDigest) {
			w, _, _ := validationWorld(60, 1)
			w.Monitor = d.tap
			w.Run(w.Opts.Start.Add(60 * time.Second))
		}, 15411, "cf5afbf88e9253f44ccec8f420e77d3c582df0f7fc4463d2f2cb322c9798d39d"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newFrameDigest()
			tc.run(d)
			if d.frames != tc.frames || d.sum() != tc.sha256 {
				t.Errorf("monitor output moved: %d frames, sha256 %s; want %d frames, sha256 %s",
					d.frames, d.sum(), tc.frames, tc.sha256)
			}
		})
	}
}

// TestSimAllocsPerFrameBounded pins the simulator's heap allocations per
// frame the monitor sees, on the one-minute campus with off-campus legs
// simulated (so it also counts legs no tap sees). Events live by value
// in the engine's heap and frames are built into one reused buffer at
// the tap, so what is left is each packet's own payload, its closures
// and its flight record: 4.85 per tapped frame, down from 15.5 when
// every event, link closure and frame copy was its own allocation. The
// budget is an eighth above the measured value.
func TestSimAllocsPerFrameBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a campus minute twice")
	}
	if raceEnabled {
		t.Skip("the race detector adds allocations; make alloc-check measures the budget without it")
	}
	const budget = 5.5
	frames := 0
	allocs := testing.AllocsPerRun(1, func() {
		frames = 0
		simulateCampus(minuteCampus(0), false, func(time.Time, []byte) { frames++ })
	})
	perFrame := allocs / float64(frames)
	t.Logf("simulator: %.2f allocs per tapped frame over %d frames", perFrame, frames)
	if perFrame > budget {
		t.Errorf("simulator allocates %.2f per tapped frame, budget %.1f", perFrame, budget)
	}
}

// TestGeneratorImportsNoAnalyzerCodec keeps the traffic generators off
// the analyzer's packet codecs: the simulator and the soak generator
// write Zoom and RTP packets from the simulator's own transcription of
// the paper's tables (internal/sim/wire.go), so that the golden frames,
// which pin that transcription to the parser, are the only place the two
// meet.
func TestGeneratorImportsNoAnalyzerCodec(t *testing.T) {
	for _, dir := range []string{"internal/sim", "internal/trace"} {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Imports {
			if imp == "zoomlens/internal/zoom" || imp == "zoomlens/internal/rtp" {
				t.Errorf("%s imports %s outside its tests", dir, imp)
			}
		}
	}
}
