// Command zoomsim synthesizes Zoom traffic into a pcap file: either a
// controlled two-party experiment (like the paper's §5 validation runs)
// or a campus-scale day (§6). The output is byte-exact Zoom wire format
// and can be fed to zoomcap, zoomqoe, zoomdissect, or any pcap tool.
//
// Usage:
//
//	zoomsim -o meeting.pcap -mode meeting -duration 2m [-p2p] [-congest]
//	zoomsim -o campus.pcap  -mode campus  -duration 30m -rate 12
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"zoomlens"
	"zoomlens/internal/engine"
	"zoomlens/internal/netsim"
	"zoomlens/internal/pcap"
	"zoomlens/internal/qos"
	"zoomlens/internal/sim"
	"zoomlens/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("zoomsim: ")
	var (
		out      = flag.String("o", "zoom.pcap", "output pcap path")
		mode     = flag.String("mode", "meeting", "workload: meeting | campus")
		duration = flag.Duration("duration", 2*time.Minute, "simulated duration")
		seed     = flag.Int64("seed", 1, "random seed")
		app      = flag.String("app", "zoom", "meeting mode: application to simulate: zoom | webrtc")
		p2p      = flag.Bool("p2p", false, "meeting mode: enable the P2P switch (second peer off campus)")
		congest  = flag.Bool("congest", false, "meeting mode: inject two cross-traffic episodes")
		screen   = flag.Bool("screen", false, "meeting mode: first participant shares a screen")
		rate     = flag.Float64("rate", 12, "campus mode: peak meetings per hour")
		bgPPS    = flag.Float64("bg", 400, "campus mode: background packet rate")
		webrtcFr = flag.Float64("webrtc-frac", 0, "campus mode: fraction of meetings run over the standards WebRTC app instead of Zoom (0 keeps the trace byte-identical to earlier versions)")
		format   = flag.String("format", "pcap", "output format: pcap | pcapng")
		qosOut   = flag.String("qos-out", "", "meeting mode: write the clients' ground-truth QoS series (the SDK view) to this path for training/labeling")
	)
	obsFlags := engine.RegisterMetrics(flag.CommandLine)
	flag.Parse()

	setup, err := obsFlags.Apply()
	if err != nil {
		log.Fatal(err)
	}
	defer setup.Close()
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	var write func(time.Time, []byte) error
	switch *format {
	case "pcap":
		w, err := pcap.NewWriter(f, pcap.WriterOptions{Nanosecond: true})
		if err != nil {
			log.Fatal(err)
		}
		write = w.WriteRecord
	case "pcapng":
		w, err := pcap.NewNGWriter(f, uint16(pcap.LinkTypeEthernet))
		if err != nil {
			log.Fatal(err)
		}
		write = w.WriteRecord
	default:
		log.Fatalf("unknown -format %q", *format)
	}
	var packets, bytes int64
	var pktC, byteC *zoomlens.MetricCounter
	if setup.Registry != nil {
		pktC = setup.Registry.Counter("zoomsim_packets_total", "frames generated onto the simulated monitor link")
		byteC = setup.Registry.Counter("zoomsim_bytes_total", "wire bytes generated onto the simulated monitor link")
	}
	monitor := func(at time.Time, frame []byte) {
		if err := write(at, frame); err != nil {
			log.Fatal(err)
		}
		packets++
		bytes += int64(len(frame))
		if pktC != nil && packets%1024 == 0 {
			pktC.Store(uint64(packets))
			byteC.Store(uint64(bytes))
		}
	}

	simDone := setup.Stage("simulate")
	switch *mode {
	case "meeting":
		opts := sim.DefaultOptions()
		opts.Seed = *seed
		world := sim.NewWorld(opts)
		world.Monitor = monitor
		var m *sim.Meeting
		switch *app {
		case "zoom":
			m = world.NewMeeting()
		case "webrtc":
			m = world.NewWebRTCMeeting()
		default:
			log.Fatalf("unknown -app %q", *app)
		}
		if *p2p {
			if *app == "webrtc" {
				log.Fatal("-p2p models Zoom's direct-connection switch; not available with -app webrtc")
			}
			m.EnableP2P(10 * time.Second)
		}
		set := sim.DefaultMediaSet()
		a := world.NewClient("alice", true)
		b := world.NewClient("bob", !*p2p) // P2P peer sits off campus so media crosses the monitor
		if *screen {
			set.Screen = true
		}
		m.Join(a, set)
		m.Join(b, sim.DefaultMediaSet())
		if *congest {
			d := *duration
			world.WanDown.Episodes = append(world.WanDown.Episodes,
				netsim.Congestion{Start: opts.Start.Add(d / 4), End: opts.Start.Add(d/4 + 15*time.Second), ExtraDelay: 25 * time.Millisecond, ExtraJitter: 35 * time.Millisecond, LossRate: 0.02},
				netsim.Congestion{Start: opts.Start.Add(2 * d / 3), End: opts.Start.Add(2*d/3 + 20*time.Second), ExtraDelay: 35 * time.Millisecond, ExtraJitter: 45 * time.Millisecond, LossRate: 0.03},
			)
		}
		world.Run(opts.Start.Add(*duration))
		if *qosOut != "" {
			clients := make(map[string][]qos.Entry)
			for _, c := range []*sim.Client{a, b} {
				if rec := c.QoS(); rec != nil {
					clients[rec.Name] = rec.Entries
				}
			}
			qf, err := os.Create(*qosOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := qos.WriteLog(qf, clients); err != nil {
				log.Fatal(err)
			}
			if err := qf.Close(); err != nil {
				log.Fatal(err)
			}
		}
	case "campus":
		if *qosOut != "" {
			log.Fatal("-qos-out records the per-client SDK series; only available in meeting mode")
		}
		cfg := zoomlens.DefaultCampusConfig()
		cfg.Seed = *seed
		cfg.Duration = *duration
		cfg.MeetingsPerHourPeak = *rate
		cfg.BackgroundPPS = *bgPPS
		cfg.WebRTCFraction = *webrtcFr
		opts := sim.DefaultOptions()
		opts.Seed = *seed
		opts.Start = cfg.Start
		opts.SkipExternalDelivery = true
		world := sim.NewWorld(opts)
		world.Monitor = monitor
		r := trace.NewRunner(cfg, world)
		plans := trace.Schedule(cfg)
		r.Install(plans)
		fmt.Printf("scheduled %d meetings over %s\n", len(plans), cfg.Duration)
		world.Run(cfg.Start.Add(cfg.Duration))
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
	simDone()
	if pktC != nil {
		pktC.Store(uint64(packets))
		byteC.Store(uint64(bytes))
	}
	fmt.Printf("wrote %d packets (%d bytes) to %s\n", packets, bytes, *out)
}
