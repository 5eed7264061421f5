// Package trace generates campus-scale Zoom workloads: a schedule of
// meetings over a working day whose aggregate traffic reproduces the
// shapes of the paper's 12-hour capture (§6.2, Appendix A): arrival
// spikes at full and half hours, a lunchtime dip, decline after the end
// of the work day, and a mix of meeting sizes and media usage. It also
// generates non-Zoom background traffic so the capture filter's
// all-vs-Zoom packet-rate comparison (Figure 17) is meaningful.
package trace

import (
	"math"
	"math/rand"
	"net/netip"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/netsim"
	"zoomlens/internal/sim"
)

// Config shapes the workload.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Start is the trace start (the paper's capture began at 09:45
	// local; campus figures run 10:00–22:00).
	Start time.Time
	// Duration is the total trace length.
	Duration time.Duration
	// MeetingsPerHourPeak is the arrival rate at the busiest times. The
	// paper's campus hosted hundreds of concurrent meetings; the default
	// here is laptop-scale and configurable upward.
	MeetingsPerHourPeak float64
	// MeanMeetingMinutes is the mean meeting duration.
	MeanMeetingMinutes float64
	// BackgroundPPS is the average non-Zoom background packet rate at
	// peak (Figure 17's "All" line).
	BackgroundPPS float64
	// WebRTCFraction is the fraction of meetings that belong to the
	// standards-RTC application instead of Zoom (mixed-app campus
	// traffic). 0 keeps the workload all-Zoom and byte-identical to
	// pre-mixed-app traces at the same seed.
	WebRTCFraction float64
}

// DefaultConfig is a small but shape-faithful campus day.
func DefaultConfig() Config {
	return Config{
		Seed:                1,
		Start:               time.Date(2022, 5, 5, 10, 0, 0, 0, time.UTC),
		Duration:            12 * time.Hour,
		MeetingsPerHourPeak: 12,
		MeanMeetingMinutes:  35,
		BackgroundPPS:       400,
	}
}

// MeetingPlan is one scheduled meeting.
type MeetingPlan struct {
	Start        time.Time
	Duration     time.Duration
	Participants int
	// OnCampus is how many participants are inside the monitored campus.
	OnCampus int
	// Screen marks a meeting with a screen-sharing presenter.
	Screen bool
	// P2P marks two-party meetings that will switch to a direct
	// connection.
	P2P bool
	// Mobile marks a meeting with one mobile-audio participant.
	Mobile bool
	// WebRTC marks a meeting of the standards-RTC application (plain
	// RTP/SRTP through a non-Zoom media server).
	WebRTC bool
}

// Schedule draws the meeting plan for the configured day.
func Schedule(cfg Config) []MeetingPlan {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var plans []MeetingPlan
	// Sample arrivals minute by minute with an intensity that encodes
	// the diurnal shape.
	minutes := int(cfg.Duration / time.Minute)
	for m := 0; m < minutes; m++ {
		at := cfg.Start.Add(time.Duration(m) * time.Minute)
		rate := cfg.MeetingsPerHourPeak / 60 * Intensity(at)
		// Poisson thinning: expected `rate` meetings this minute.
		n := poisson(rng, rate)
		for i := 0; i < n; i++ {
			plans = append(plans, drawMeeting(rng, cfg, at))
		}
	}
	return plans
}

// Intensity returns the relative meeting-arrival intensity at a given
// wall-clock time: spikes at :00 (and smaller at :30), a lunch dip
// around 12:30–13:30, and decline after 17:00 (Figure 14's shape).
func Intensity(at time.Time) float64 {
	h := float64(at.Hour()) + float64(at.Minute())/60
	// Diurnal envelope: ramp up to ~10:00, plateau, lunch dip, afternoon
	// plateau, evening decline.
	var envelope float64
	switch {
	case h < 8:
		envelope = 0.1
	case h < 10:
		envelope = 0.4 + 0.3*(h-8)
	case h < 12.25:
		envelope = 1.0
	case h < 13.5:
		envelope = 0.55 // lunch dip
	case h < 17:
		envelope = 0.95
	case h < 20:
		envelope = 0.45 - 0.1*(h-17)
	default:
		envelope = 0.12
	}
	// Meetings start on the hour (strong) and half hour (weaker).
	min := at.Minute()
	boost := 1.0
	switch {
	case min == 0 || min == 59 || min == 1:
		boost = 6
	case min == 30 || min == 29 || min == 31:
		boost = 3
	case min%15 == 0:
		boost = 1.5
	}
	return envelope * boost
}

func drawMeeting(rng *rand.Rand, cfg Config, at time.Time) MeetingPlan {
	p := MeetingPlan{Start: at}
	// Duration: exponential with floor, most meetings 20-60 minutes.
	p.Duration = time.Duration((10 + rng.ExpFloat64()*(cfg.MeanMeetingMinutes-10)) * float64(time.Minute))
	if p.Duration > 3*time.Hour {
		p.Duration = 3 * time.Hour
	}
	// Size: mostly small meetings; a tail of large ones.
	switch r := rng.Float64(); {
	case r < 0.35:
		p.Participants = 2
	case r < 0.65:
		p.Participants = 3 + rng.Intn(3)
	case r < 0.9:
		p.Participants = 6 + rng.Intn(10)
	default:
		// Large meetings; the tail is capped for simulation cost — the
		// monitor-visible traffic of a 40-person meeting differs from a
		// 20-person one only by the (invisible) off-campus legs.
		p.Participants = 16 + rng.Intn(8)
	}
	// At least one participant on campus (we only schedule meetings the
	// monitor can see); most others off campus.
	p.OnCampus = 1
	for i := 1; i < p.Participants; i++ {
		if rng.Float64() < 0.35 {
			p.OnCampus++
		}
	}
	p.Screen = rng.Float64() < 0.3
	p.P2P = p.Participants == 2 && rng.Float64() < 0.5
	p.Mobile = rng.Float64() < 0.15
	// Drawn last, and only when mixing is on: an all-Zoom schedule
	// consumes exactly the same random sequence as before this knob
	// existed, keeping zoom-only traces byte-identical per seed.
	if cfg.WebRTCFraction > 0 && rng.Float64() < cfg.WebRTCFraction {
		p.WebRTC = true
		p.P2P = false // the standards app always relays in this model
	}
	return p
}

func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	// Knuth's method; lambda here is small (≪ 10).
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 100 {
			return k
		}
	}
}

// Runner instantiates a schedule in a simulator world.
type Runner struct {
	W   *sim.World
	Cfg Config
	rng *rand.Rand
	// frames and payload are the background ticks' reused buffers.
	frames  layers.Builder
	payload []byte

	// ActiveMeetings gauges concurrency over time (diagnostics).
	started, ended int
}

// NewRunner builds a runner over a fresh world whose monitor the caller
// sets before Run.
func NewRunner(cfg Config, w *sim.World) *Runner {
	return &Runner{W: w, Cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))}
}

// Install schedules every meeting (joins, leaves), occasional WAN
// congestion episodes, and the background traffic into the world's
// engine. Call before the world runs.
func (r *Runner) Install(plans []MeetingPlan) {
	for i, p := range plans {
		p := p
		i := i
		r.W.Eng.Schedule(p.Start, func() { r.startMeeting(i, p) })
	}
	if r.Cfg.BackgroundPPS > 0 {
		r.W.Eng.Schedule(r.Cfg.Start, r.tickBackground)
	}
	r.installCongestion()
}

// installCongestion sprinkles short congestion episodes over the WAN
// legs (~4/hour, 10–40 s) so that the jitter distribution has the tail
// the paper observes in the wild (Figure 15d: ~5 % of samples exceed
// 40 ms).
func (r *Runner) installCongestion() {
	// A dedicated random stream keeps congestion placement from
	// perturbing the meeting composition draws.
	rng := rand.New(rand.NewSource(r.Cfg.Seed ^ 0xc0196e57))
	at := r.Cfg.Start
	end := r.Cfg.Start.Add(r.Cfg.Duration)
	for {
		at = at.Add(time.Duration((1 + rng.ExpFloat64()*4) * float64(time.Minute)))
		if !at.Before(end) {
			return
		}
		// Most episodes are mild; a minority are severe enough to push
		// frame-level jitter past Zoom's 40 ms guidance — the long tail
		// of Figure 15d.
		jitterAmp := time.Duration(40+rng.Intn(80)) * time.Millisecond
		if rng.Float64() < 0.3 {
			jitterAmp = time.Duration(150+rng.Intn(150)) * time.Millisecond
		}
		ep := netsim.Congestion{
			Start:       at,
			End:         at.Add(time.Duration(12+rng.Intn(35)) * time.Second),
			ExtraDelay:  time.Duration(10+rng.Intn(40)) * time.Millisecond,
			ExtraJitter: jitterAmp,
			LossRate:    0.01 * rng.Float64(),
		}
		if rng.Intn(2) == 0 {
			r.W.WanDown.Episodes = append(r.W.WanDown.Episodes, ep)
		} else {
			r.W.WanUp.Episodes = append(r.W.WanUp.Episodes, ep)
		}
	}
}

func (r *Runner) startMeeting(idx int, p MeetingPlan) {
	var m *sim.Meeting
	if p.WebRTC {
		m = r.W.NewWebRTCMeeting()
	} else {
		m = r.W.NewMeeting()
	}
	if p.P2P {
		m.EnableP2P(10*time.Second + time.Duration(r.rng.Intn(20))*time.Second)
	}
	r.started++
	for i := 0; i < p.Participants; i++ {
		campus := i < p.OnCampus
		c := r.W.NewClient("", campus)
		set := sim.DefaultMediaSet()
		// Meeting-size dependent behaviour: in large meetings many
		// participants mute (no audio stream at all — passive
		// participants, §4.3.1) and some keep video off; unmuted
		// participants speak in turn, so the speaking substream
		// dominates audio traffic (Table 3).
		if p.Participants > 2 && i > 1 {
			set.Audio = r.rng.Float64() < 0.3 // most are muted
			set.Video = r.rng.Float64() < 0.7
		}
		// Some senders are displayed as thumbnails: Zoom halves their
		// frame rate for *user-interface* reasons, not network ones —
		// the source of Figure 16's uncorrelated low-fps cluster.
		if set.Video && r.rng.Float64() < 0.3 {
			set.VideoConfig.FPS = 14
			set.VideoConfig.MeanFrameBytes = 900
		}
		if p.Screen && i == 0 {
			set.Screen = true
		}
		if p.Mobile && i == 1 {
			set.Mobile = true
		}
		// Participants trickle in over the first minute.
		delay := time.Duration(r.rng.Intn(60)) * time.Second
		if i == 0 {
			delay = 0
		}
		r.W.Eng.After(delay, func() { m.Join(c, set) })
		// Mid-meeting churn: some participants toggle camera or mute
		// partway through (§4.3.1's passive-participant dynamics).
		if set.Video && r.rng.Float64() < 0.2 {
			off := delay + time.Duration(60+r.rng.Intn(120))*time.Second
			on := off + time.Duration(30+r.rng.Intn(90))*time.Second
			r.W.Eng.After(off, func() { c.SetVideoEnabled(false) })
			r.W.Eng.After(on, func() { c.SetVideoEnabled(true) })
		}
		if set.Audio && r.rng.Float64() < 0.25 {
			off := delay + time.Duration(30+r.rng.Intn(120))*time.Second
			on := off + time.Duration(20+r.rng.Intn(120))*time.Second
			r.W.Eng.After(off, func() { c.SetMuted(true) })
			r.W.Eng.After(on, func() { c.SetMuted(false) })
		}
		// And leave at the end (some early).
		stay := p.Duration - time.Duration(r.rng.Intn(120))*time.Second
		if stay < time.Minute {
			stay = time.Minute
		}
		r.W.Eng.After(stay, func() { m.Leave(c); r.ended++ })
	}
	_ = idx
}

// tickBackground emits non-Zoom packets (web, DNS-ish noise) crossing
// the border so the capture filter has something to drop (Figure 17).
func (r *Runner) tickBackground() {
	now := r.W.Now()
	rate := r.Cfg.BackgroundPPS * Intensity(now) / 6 // de-boosted average
	if rate < 20 {
		rate = 20
	}
	// Emit a small burst each 100 ms tick.
	n := poisson(r.rng, rate/10)
	for i := 0; i < n; i++ {
		src := netip.AddrPortFrom(randomAddrIn(r.rng, r.W.Opts.CampusNet), uint16(30000+r.rng.Intn(30000)))
		dst := netip.AddrPortFrom(randomAddrIn(r.rng, backgroundNet), 443)
		r.payload = append(r.payload[:0], make([]byte, 40+r.rng.Intn(1200))...)
		r.rng.Read(r.payload)
		frame := r.frames.FrameUDP(src, dst, 64, r.payload)
		if r.W.Monitor != nil {
			r.W.Monitor(now, frame)
		}
		r.W.MonitorPackets++
		r.W.MonitorBytes += uint64(len(frame))
	}
	if now.Sub(r.Cfg.Start) < r.Cfg.Duration {
		r.W.Eng.After(100*time.Millisecond, r.tickBackground)
	}
}

// backgroundNet is where background traffic goes: outside both the
// campus and Zoom's prefixes.
var backgroundNet = netip.MustParsePrefix("93.184.0.0/16")

func randomAddrIn(rng *rand.Rand, p netip.Prefix) netip.Addr {
	a := p.Addr().As4()
	host := rng.Uint32() >> p.Bits()
	v := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
	v |= host
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}
