// Package media models the content side of Zoom streams: frame
// generators for video, audio, and screen sharing whose rate, size, and
// cadence statistics match the behaviour the paper reports.
//
//   - Video: ~28 fps normally, dropping to ~14 fps in thumbnail mode or
//     under heavy congestion (§6.2); 90 kHz RTP clock; keyframes several
//     times larger than delta frames; most frames under 2000 bytes.
//   - Audio: one 20 ms packet cadence; payload type 112 with ~wideband
//     Opus-sized payloads while speaking, fixed 40-byte type-99 packets
//     during silence (§4.2.3); speaking alternates in talk spurts.
//   - Screen share: new frames only when the picture changes; ~15 % of
//     one-second windows produce no frame at all, half five or fewer;
//     slide flips produce large frames followed by small incremental
//     updates, >50 % of frames under 500 bytes with a long tail (§6.2).
//
// Generators are deterministic given a seed and advance on explicit
// Next* calls from the simulator clock.
package media

import (
	"math"
	"math/rand"
	"time"
)

// Frame is one generated media frame.
type Frame struct {
	// Bytes is the encoded frame size.
	Bytes int
	// Duration is the media time the frame covers (the packetization
	// interval); the RTP timestamp advances by Duration × clock rate.
	Duration time.Duration
	// Keyframe marks video IDR frames and screen-share full refreshes.
	Keyframe bool
	// Silent marks audio frames generated during silence (PT 99).
	Silent bool
}

// VideoConfig parameterizes a video source.
type VideoConfig struct {
	// FPS is the target frame rate (Zoom: ~28, reduced mode ~14).
	FPS float64
	// MeanFrameBytes is the average delta-frame size. With FPS it sets
	// the bit rate: 28 fps × 1100 B ≈ 250 kbit/s before FEC.
	MeanFrameBytes int
	// KeyframeInterval is the number of frames between keyframes.
	KeyframeInterval int
	// KeyframeScale multiplies the mean size for keyframes.
	KeyframeScale float64
	// Motion in [0,1] scales frame-size variance (high-motion video
	// produces bursty sizes; cf. Chang et al. finding in §3).
	Motion float64
}

// DefaultVideoConfig is a 28 fps ~2.2 Mbit/s camera stream, matching the
// "usually around 28 fps" observation of §6.2 and Figure 15's video
// frame-size mass below 2000 bytes.
func DefaultVideoConfig() VideoConfig {
	return VideoConfig{
		FPS:              28,
		MeanFrameBytes:   1500,
		KeyframeInterval: 120,
		KeyframeScale:    3.5,
		Motion:           0.25,
	}
}

// VideoSource generates video frames.
type VideoSource struct {
	cfg   VideoConfig
	rng   *rand.Rand
	seed  int64
	count int
	// reducedUntilFrame implements abrupt 28→14 fps adaptation.
	reduced bool
}

// NewVideoSource builds a deterministic source.
func NewVideoSource(cfg VideoConfig, seed int64) *VideoSource {
	if cfg.FPS <= 0 {
		cfg = DefaultVideoConfig()
	}
	return &VideoSource{cfg: cfg, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// SetReduced toggles reduced-rate mode (~half frame rate, smaller
// frames), Zoom's response to congestion or thumbnail display (§6.2).
func (v *VideoSource) SetReduced(r bool) { v.reduced = r }

// CurrentFPS returns the momentary target frame rate.
func (v *VideoSource) CurrentFPS() float64 {
	if v.reduced {
		return v.cfg.FPS / 2
	}
	return v.cfg.FPS
}

// Next produces the next frame. The caller schedules the following call
// after Frame.Duration.
func (v *VideoSource) Next() Frame {
	fps := v.CurrentFPS()
	// Encoder cadence wobbles slightly (±5 %): Zoom's timestamps show
	// variable packetization intervals (§5.4).
	wobble := 1 + (v.rng.Float64()-0.5)*0.1
	dur := time.Duration(float64(time.Second) / fps * wobble)

	mean := float64(v.cfg.MeanFrameBytes)
	if v.reduced {
		mean *= 0.55
	}
	// Lognormal-ish size: exp(N(0, sigma)) keeps sizes positive with a
	// long tail controlled by motion.
	sigma := 0.25 + 0.5*v.cfg.Motion
	size := mean * math.Exp(v.rng.NormFloat64()*sigma-sigma*sigma/2)
	f := Frame{Duration: dur}
	if v.cfg.KeyframeInterval > 0 && v.count%v.cfg.KeyframeInterval == 0 {
		f.Keyframe = true
		size *= v.cfg.KeyframeScale
	}
	if size < 200 {
		size = 200
	}
	if size > 12000 {
		size = 12000
	}
	f.Bytes = int(size)
	v.count++
	return f
}

// AudioConfig parameterizes an audio source.
type AudioConfig struct {
	// PacketInterval is the audio frame cadence (Zoom: 20 ms).
	PacketInterval time.Duration
	// SpeakingBytes is the mean payload while talking.
	SpeakingBytes int
	// MeanTalkSpurt and MeanSilence shape the on/off alternation.
	MeanTalkSpurt time.Duration
	MeanSilence   time.Duration
	// AlwaysUnknownMode emits every packet as the PT-113 style stream
	// (mobile clients, §4.2.3) — the source stays in "speaking" forever
	// and Silent is never set.
	AlwaysUnknownMode bool
}

// DefaultAudioConfig models a desktop participant in a conversation.
func DefaultAudioConfig() AudioConfig {
	return AudioConfig{
		PacketInterval: 20 * time.Millisecond,
		SpeakingBytes:  110,
		MeanTalkSpurt:  8 * time.Second,
		MeanSilence:    15 * time.Second,
	}
}

// SilentPayloadBytes is the fixed payload of silence packets (§4.2.3).
const SilentPayloadBytes = 40

// SilentPacketInterval is the cadence of silence packets. Zoom emits
// far fewer packets during silence than while speaking (Table 3: the
// silent substream is ~8× smaller than the speaking one even though
// participants are silent much of the time), so silence keep-alives go
// out at a reduced rate.
const SilentPacketInterval = 100 * time.Millisecond

// AudioSource generates one audio frame per PacketInterval, alternating
// talk spurts and silence.
type AudioSource struct {
	cfg      AudioConfig
	rng      *rand.Rand
	seed     int64
	count    int
	speaking bool
	// remaining is the time left in the current spurt/silence.
	remaining time.Duration
}

// NewAudioSource builds a deterministic source that starts mid-silence.
func NewAudioSource(cfg AudioConfig, seed int64) *AudioSource {
	if cfg.PacketInterval <= 0 {
		cfg = DefaultAudioConfig()
	}
	s := &AudioSource{cfg: cfg, seed: seed, rng: rand.New(rand.NewSource(seed))}
	s.speaking = false
	s.remaining = s.draw(cfg.MeanSilence)
	return s
}

func (a *AudioSource) draw(mean time.Duration) time.Duration {
	if mean <= 0 {
		return time.Second
	}
	return time.Duration(a.rng.ExpFloat64() * float64(mean))
}

// Speaking reports the current talk state.
func (a *AudioSource) Speaking() bool { return a.cfg.AlwaysUnknownMode || a.speaking }

// Next produces the next audio frame: PacketInterval long while
// speaking, SilentPacketInterval long during silence.
func (a *AudioSource) Next() Frame {
	a.count++
	interval := a.cfg.PacketInterval
	if !a.Speaking() {
		interval = SilentPacketInterval
	}
	if !a.cfg.AlwaysUnknownMode {
		a.remaining -= interval
		if a.remaining <= 0 {
			a.speaking = !a.speaking
			if a.speaking {
				a.remaining = a.draw(a.cfg.MeanTalkSpurt)
			} else {
				a.remaining = a.draw(a.cfg.MeanSilence)
			}
			interval = a.cfg.PacketInterval
			if !a.speaking {
				interval = SilentPacketInterval
			}
		}
	}
	f := Frame{Duration: interval}
	if a.Speaking() {
		// Opus VBR wiggle around the mean.
		size := float64(a.cfg.SpeakingBytes) * (0.7 + 0.6*a.rng.Float64())
		f.Bytes = int(size)
		if f.Bytes < 20 {
			f.Bytes = 20
		}
	} else {
		f.Bytes = SilentPayloadBytes
		f.Silent = true
	}
	return f
}

// ScreenShareConfig parameterizes a screen-share source.
type ScreenShareConfig struct {
	// MeanChangeInterval is the mean time between picture changes (slide
	// flips, typing bursts).
	MeanChangeInterval time.Duration
	// BigChangeBytes is the mean size of a full refresh (slide flip).
	BigChangeBytes int
	// SmallChangeBytes is the mean size of incremental updates.
	SmallChangeBytes int
	// BigChangeProb is the probability a change is a full refresh.
	BigChangeProb float64
	// BurstFrames is how many incremental frames follow a change.
	BurstFrames int
}

// DefaultScreenShareConfig models slide-driven presentations: long idle
// stretches (15 % of seconds produce no frame; half produce ≤5), small
// incremental frames (>50 % under 500 B) with a long tail from flips.
func DefaultScreenShareConfig() ScreenShareConfig {
	return ScreenShareConfig{
		MeanChangeInterval: 1100 * time.Millisecond,
		BigChangeBytes:     9000,
		SmallChangeBytes:   330,
		BigChangeProb:      0.08,
		BurstFrames:        8,
	}
}

// ScreenShareSource generates frames only when the picture changes.
type ScreenShareSource struct {
	cfg       ScreenShareConfig
	rng       *rand.Rand
	seed      int64
	count     int
	burstLeft int
}

// NewScreenShareSource builds a deterministic source.
func NewScreenShareSource(cfg ScreenShareConfig, seed int64) *ScreenShareSource {
	if cfg.MeanChangeInterval <= 0 {
		cfg = DefaultScreenShareConfig()
	}
	return &ScreenShareSource{cfg: cfg, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Next produces the next frame and the delay until the one after it.
// Unlike video, the inter-frame gap varies wildly: bursts of updates at
// ~10 fps during activity, then nothing for seconds.
func (s *ScreenShareSource) Next() (Frame, time.Duration) {
	s.count++
	var f Frame
	if s.burstLeft > 0 {
		s.burstLeft--
		f.Bytes = s.size(float64(s.cfg.SmallChangeBytes))
		f.Duration = 100 * time.Millisecond
		return f, 100 * time.Millisecond
	}
	// A new change event.
	if s.rng.Float64() < s.cfg.BigChangeProb {
		f.Keyframe = true
		f.Bytes = s.size(float64(s.cfg.BigChangeBytes))
	} else {
		f.Bytes = s.size(float64(s.cfg.SmallChangeBytes))
	}
	s.burstLeft = s.rng.Intn(s.cfg.BurstFrames + 1)
	gap := time.Duration(s.rng.ExpFloat64() * float64(s.cfg.MeanChangeInterval))
	if gap < 100*time.Millisecond {
		gap = 100 * time.Millisecond
	}
	f.Duration = gap
	return f, gap
}

func (s *ScreenShareSource) size(mean float64) int {
	v := mean * math.Exp(s.rng.NormFloat64()*0.6-0.18)
	if v < 60 {
		v = 60
	}
	if v > 60000 {
		v = 60000
	}
	return int(v)
}
