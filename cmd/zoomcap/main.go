// Command zoomcap is the software twin of the paper's Tofino capture
// program (§6.1, Figure 13): it reads a pcap, keeps only Zoom traffic
// (server-based, STUN, and stateful P2P), optionally anonymizes campus
// addresses, and writes a filtered pcap.
//
// Usage:
//
//	zoomcap -i all.pcap -o zoom.pcap [-anon -key secret] [-resources]
//
// The input may be classic pcap or pcapng, and "-i -" reads from stdin.
// Kept records are anonymized and written in line, before the next read.
//
// With -metrics-addr the filter's verdict counters are served live in
// Prometheus text format (plus expvar and pprof) — the software stand-in
// for reading the Tofino pipeline's counters mid-capture; -trace prints
// a per-stage timing report at exit.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zoomlens"
	"zoomlens/internal/capture"
	"zoomlens/internal/engine"
	"zoomlens/internal/layers"
	"zoomlens/internal/obs"
	"zoomlens/internal/pcap"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("zoomcap: ")
	var (
		in        = flag.String("i", "", "input pcap path (\"-\" = stdin)")
		live      = flag.String("live", "", "capture live from this interface instead of a file (Linux, needs CAP_NET_RAW)")
		duration  = flag.Duration("duration", 0, "stop live capture after this long (0 = until interrupted)")
		out       = flag.String("o", "zoom.pcap", "output pcap path")
		campus    = flag.String("campus", "10.8.0.0/16", "comma-separated campus prefixes")
		anon      = flag.Bool("anon", false, "anonymize campus addresses")
		anonMode  = flag.String("anon-mode", "hash", "anonymization mode: hash | prefix (prefix-preserving Crypto-PAn)")
		key       = flag.String("key", "zoomlens", "anonymization key")
		validate  = flag.Bool("validate-p2p", true, "reject P2P table hits whose payload is not Zoom media format")
		resources = flag.Bool("resources", false, "print the Table 5 hardware resource model and exit")
		exportP4  = flag.Bool("export-p4", false, "print the generated P4 capture program and exit")
	)
	obsFlags := engine.RegisterMetrics(flag.CommandLine)
	flag.Parse()

	if *resources {
		fmt.Print(zoomlens.Table5())
		return
	}
	if *exportP4 {
		fmt.Print(capture.GenerateP4(zoomlens.DefaultZoomNetworks(), 1<<16))
		return
	}
	if *in == "" && *live == "" {
		log.Fatal("missing -i input pcap (or -live interface)")
	}
	campusNets, err := parsePrefixes(*campus)
	if err != nil {
		log.Fatal(err)
	}

	// nextInto fills a record whose Data borrows the source's buffer —
	// valid only until the next call. The filter, the anonymizer and the
	// write all run before the next read.
	var nextInto func(*pcap.Record) error
	var truncated func() bool
	var stopAt time.Time
	nano := true
	if *live != "" {
		liveNext, closeFn, err := openLive(*live, 0)
		if err != nil {
			log.Fatal(err)
		}
		defer closeFn()
		nextInto = func(rec *pcap.Record) error {
			r, err := liveNext()
			if err != nil {
				return err
			}
			*rec = r
			return nil
		}
		if *duration > 0 {
			stopAt = time.Now().Add(*duration)
		}
	} else {
		src, err := engine.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer src.Close()
		nano = src.Nanosecond()
		nextInto = src.NextInto
		truncated = src.Truncated
	}
	outF, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	w, err := pcap.NewWriter(outF, pcap.WriterOptions{Nanosecond: nano})
	if err != nil {
		log.Fatal(err)
	}

	setup, err := obsFlags.Apply()
	if err != nil {
		log.Fatal(err)
	}
	defer setup.Close()

	filter := capture.NewFilter(capture.Config{
		ZoomNetworks:       zoomlens.DefaultZoomNetworks(),
		CampusNetworks:     campusNets,
		ValidateP2PPayload: *validate,
	})
	mirrorStats := statsMirror(setup, filter)
	var anonymizer *capture.Anonymizer
	if *anon {
		switch *anonMode {
		case "hash":
			anonymizer = capture.NewAnonymizer([]byte(*key), campusNets)
		case "prefix":
			anonymizer = capture.NewPrefixAnonymizer([]byte(*key), campusNets)
		default:
			log.Fatalf("unknown -anon-mode %q", *anonMode)
		}
	}

	// SIGINT/SIGTERM finishes the run instead of killing it: the output
	// is closed, so the pcap stays valid and complete up to the
	// interruption — essential for -live captures. A live receive error
	// that is not the poll timeout ends the capture the same way.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	interrupted := false
	var liveErr error

	parser := &layers.Parser{}
	var pkt layers.Packet
	var rec pcap.Record
	var seen uint64
	captureDone := setup.Stage("capture")
readLoop:
	for {
		select {
		case <-sig:
			interrupted = true
			break readLoop
		default:
		}
		if !stopAt.IsZero() && time.Now().After(stopAt) {
			break
		}
		err := nextInto(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			if *live == "" {
				log.Fatal(err)
			}
			if liveTimeout(err) {
				continue
			}
			liveErr = err
			break
		}
		seen++
		if seen%1024 == 0 {
			mirrorStats()
		}
		if parser.Parse(rec.Data, &pkt) != nil {
			continue
		}
		if !filter.Classify(&pkt, rec.Timestamp).Keep() {
			continue
		}
		if anonymizer != nil {
			anonymizer.AnonymizeInPlace(rec.Data)
		}
		if err := w.WriteRecord(rec.Timestamp, rec.Data); err != nil {
			log.Fatal(err)
		}
	}
	captureDone()
	select {
	case <-sig:
		interrupted = true
	default:
	}
	signal.Stop(sig)
	if err := outF.Close(); err != nil {
		log.Fatal(err)
	}
	mirrorStats()
	st := filter.Stats()
	note := ""
	if interrupted || liveErr != nil {
		note = " (interrupted: output is a valid partial capture)"
	} else if truncated != nil && truncated() {
		note = " (input truncated mid-record: output covers the readable prefix)"
	}
	fmt.Printf("processed %d packets: server %d, stun %d, p2p %d (format-rejected %d), dropped %d%s\n",
		st.Processed, st.ZoomServer, st.ZoomSTUN, st.ZoomP2P, st.P2PFormatRejected, st.Dropped, note)
	if liveErr != nil {
		setup.Close()
		log.Fatal(liveErr)
	}
}

// liveTimeout reports whether a live receive error is the socket's
// poll timeout (SO_RCVTIMEO expiring with no packet), the one error the
// read loop retries: it exists so the loop can re-check its stop
// conditions. Anything else (ENETDOWN when the interface goes away) is
// persistent, and retrying it would spin forever.
func liveTimeout(err error) bool {
	return errors.Is(err, syscall.EAGAIN) || errors.Is(err, syscall.EWOULDBLOCK)
}

// statsMirror publishes the filter's verdict counters to the metrics
// registry. The filter itself stays untouched — its stats are plain
// fields — so the mirror copies them into atomic handles on a packet
// cadence. Returns a no-op when -metrics-addr is off.
func statsMirror(setup *engine.ObsSetup, filter *capture.Filter) func() {
	reg := setup.Registry
	if reg == nil {
		return func() {}
	}
	verdict := func(v string) *obs.Counter {
		return reg.Counter("zoomcap_filter_packets_total",
			"capture filter verdicts (Figure 13 pipeline)", obs.L("verdict", v))
	}
	processed := reg.Counter("zoomcap_packets_total", "packets examined by the capture filter")
	server, stun, p2p := verdict("server"), verdict("stun"), verdict("p2p")
	rejected, dropped := verdict("p2p_format_rejected"), verdict("dropped")
	p2pTable := reg.Gauge("zoomcap_p2p_table_churn", "P2P table inserts minus evictions")
	return func() {
		st := filter.Stats()
		processed.Store(st.Processed)
		server.Store(st.ZoomServer)
		stun.Store(st.ZoomSTUN)
		p2p.Store(st.ZoomP2P)
		rejected.Store(st.P2PFormatRejected)
		dropped.Store(st.Dropped)
		p2pTable.Set(int64(st.P2PInserted) - int64(st.P2PEvicted))
	}
}

func parsePrefixes(s string) ([]netip.Prefix, error) {
	var out []netip.Prefix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := netip.ParsePrefix(part)
		if err != nil {
			return nil, fmt.Errorf("bad prefix %q: %w", part, err)
		}
		out = append(out, p)
	}
	return out, nil
}
