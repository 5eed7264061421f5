// Command zoomsplit is the cluster splitter: it reads one capture,
// classifies every frame with the same dispatch path a single engine
// uses (raw scan → stateful capture filter → flow hash), and
// fans the kept frames out whole to N worker streams as pcapng,
// stamping each frame with its global capture sequence number
// (epb_packetid). A worker is an ordinary zoomqoe process reading one
// stream with -cluster-part; zoomagg folds the workers back together.
//
// Output modes (mutually exclusive):
//
//	zoomsplit -i zoom.pcap -n 4 -out sp                 # files sp-000.pcapng … sp-003.pcapng
//	zoomsplit -i zoom.pcap -n 4 -exec 'zoomqoe -i - …'  # one child per worker, fed on stdin
//	zoomsplit -i - -n 2 -connect h1:9000,h2:9000        # pcapng over TCP
//
// The manifest (default <out>.manifest.json) carries the splitter-side
// head counters the aggregator needs to reproduce a single engine's
// accounting byte-for-byte. SIGINT or SIGTERM ends the split at the next
// frame: the streams are closed and the manifest covers every frame
// routed, so the workers and the aggregator can finish the partial run.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"

	"zoomlens"
	"zoomlens/internal/cluster"
	"zoomlens/internal/core"
	"zoomlens/internal/engine"
	"zoomlens/internal/pcap"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("zoomsplit: ")
	var (
		input    = flag.String("i", "", `input pcap/pcapng path ("-" = stdin)`)
		n        = flag.Int("n", 2, "worker fan-out width")
		out      = flag.String("out", "", "write worker i's stream to <out>-00i.pcapng")
		execCmd  = flag.String("exec", "", "spawn this shell command once per worker and feed its stdin (ZOOMSPLIT_WORKER=i in the child's env)")
		connect  = flag.String("connect", "", "comma-separated host:port list, one TCP destination per worker")
		cut      = flag.Uint64("cut", 0, "after this many input packets, rotate every worker stream to <out>-00i.1.pcapng — the drain point of a checkpoint-based worker migration (-out only)")
		manifest = flag.String("manifest", "", `manifest path (default <out>.manifest.json, or "-" for stdout)`)
	)
	flag.Parse()
	if *input == "" {
		log.Fatal("missing -i input capture")
	}
	modes := 0
	for _, set := range []bool{*out != "", *execCmd != "", *connect != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		log.Fatal("exactly one of -out, -exec, -connect must be given")
	}
	if *cut > 0 && *out == "" {
		log.Fatal("-cut requires -out (file streams are the only rotatable outputs)")
	}
	if *n < 1 {
		log.Fatal("-n must be at least 1")
	}

	src, err := engine.Open(*input)
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()

	sp := cluster.NewSplitter(core.Config{ZoomNetworks: zoomlens.DefaultZoomNetworks()}, *n)

	// Build the worker sinks. closers tears them down in order; cmds is
	// non-nil only in -exec mode (children to wait for after EOF).
	sinks := make([]io.WriteCloser, *n)
	var cmds []*exec.Cmd
	switch {
	case *out != "":
		for i := 0; i < *n; i++ {
			f, err := os.Create(fmt.Sprintf("%s-%03d.pcapng", *out, i))
			if err != nil {
				log.Fatal(err)
			}
			sinks[i] = f
		}
	case *execCmd != "":
		for i := 0; i < *n; i++ {
			cmd := exec.Command("/bin/sh", "-c", *execCmd)
			cmd.Env = append(os.Environ(), fmt.Sprintf("ZOOMSPLIT_WORKER=%d", i))
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			stdin, err := cmd.StdinPipe()
			if err != nil {
				log.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				log.Fatal(err)
			}
			sinks[i] = stdin
			cmds = append(cmds, cmd)
		}
	default:
		addrs := strings.Split(*connect, ",")
		if len(addrs) != *n {
			log.Fatalf("-connect lists %d destination(s) for -n %d workers", len(addrs), *n)
		}
		for i, addr := range addrs {
			c, err := net.Dial("tcp", strings.TrimSpace(addr))
			if err != nil {
				log.Fatal(err)
			}
			sinks[i] = c
		}
	}
	for i, w := range sinks {
		if err := sp.Attach(i, w); err != nil {
			log.Fatal(err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var rec pcap.Record
	var seen uint64
	rotated := false
	for {
		// Polled before every read, as internal/engine's read loop is; the
		// signal stays queued for the check after the loop.
		if len(sig) > 0 {
			break
		}
		err := src.NextInto(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		// Rotate every worker stream at the cut point, before feeding the
		// first post-cut packet: the splitter's filter state and global
		// sequence numbering carry straight across the boundary.
		if *cut > 0 && !rotated && seen == *cut {
			rotated = true
			for i := 0; i < *n; i++ {
				if err := sinks[i].Close(); err != nil {
					log.Fatal(err)
				}
				f, err := os.Create(fmt.Sprintf("%s-%03d.1.pcapng", *out, i))
				if err != nil {
					log.Fatal(err)
				}
				sinks[i] = f
				if err := sp.Attach(i, f); err != nil {
					log.Fatal(err)
				}
			}
		}
		seen++
		if err := sp.Packet(rec.Timestamp, rec.Data); err != nil {
			log.Fatal(err)
		}
	}
	interrupted := len(sig) > 0
	signal.Stop(sig)
	for _, w := range sinks {
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
	}

	m := sp.Manifest(src.Truncated())
	mpath := *manifest
	if mpath == "" {
		if *out != "" {
			mpath = *out + ".manifest.json"
		} else {
			mpath = "-"
		}
	}
	if mpath == "-" {
		enc, err := cluster.MarshalManifest(m)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(enc)
	} else if err := cluster.WriteManifest(mpath, m); err != nil {
		log.Fatal(err)
	}
	log.Printf("split %d packets (%d kept) across %d workers", m.Packets, keptTotal(m), *n)
	if interrupted {
		log.Print("interrupted: the streams and the manifest cover the packets read before the signal")
	}
	if m.DroppedTimeRange > 0 {
		log.Printf("dropped %d kept packets stamped outside the worker streams' time range", m.DroppedTimeRange)
	}

	// In -exec mode the children see EOF on stdin once the pipes close;
	// wait for them and propagate failure.
	failed := false
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			log.Printf("worker %d: %v", i, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func keptTotal(m cluster.Manifest) uint64 {
	var t uint64
	for _, k := range m.KeptPerWorker {
		t += k
	}
	return t
}
