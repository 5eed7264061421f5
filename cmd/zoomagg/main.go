// Command zoomagg is the cluster aggregator: it folds a zoomsplit →
// worker-fleet run back into one meeting-level view.
//
// The primary mode merges worker engine states and observation logs
// into a single sequential-equivalent analyzer — byte-identical to one
// engine having read the whole capture:
//
//	zoomagg -cluster-merge sp-000,sp-001 -manifest sp.manifest.json \
//	        -checkpoint-out merged.zlcp -summary
//
// Each -cluster-merge prefix names a worker's <prefix>.state.zlcp
// checkpoint chain base and <prefix>.obs observation log; -obs adds
// extra logs (a migrated worker's first life). -checkpoint-out writes
// the merged pre-Finish state as a one-record checkpoint chain, so any
// reporting tool can render the merged report: zoomqoe -restore
// merged.zlcp …
//
// Operational roll-ups (independent of the byte-identical path):
//
//	zoomagg -status  sp-000.status.json,sp-001.status.json
//	zoomagg -metrics m0.prom,m1.prom
//	zoomagg -windows w0,w1 -windows-out merged-window
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"zoomlens"
	"zoomlens/internal/cluster"
	"zoomlens/internal/core"
	"zoomlens/internal/engine"
	"zoomlens/internal/features"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("zoomagg: ")
	var (
		merge      = flag.String("cluster-merge", "", "comma-separated worker prefixes; each names the checkpoint chain base <prefix>.state.zlcp and <prefix>.obs")
		extraObs   = flag.String("obs", "", "comma-separated extra observation logs (e.g. a migrated worker's first life)")
		manifest   = flag.String("manifest", "", "splitter manifest path (required with -cluster-merge)")
		ckOut      = flag.String("checkpoint-out", "", "write the merged pre-Finish engine state as a checkpoint chain under this base path")
		summary    = flag.Bool("summary", false, "finish the merged engine and print its summary JSON on stdout")
		status     = flag.String("status", "", "comma-separated worker status JSON files to merge onto stdout")
		metricsIn  = flag.String("metrics", "", "comma-separated Prometheus text dumps to merge onto stdout")
		windows    = flag.String("windows", "", "comma-separated worker -rotate-out prefixes whose window files to merge")
		windowsOut = flag.String("windows-out", "zoomagg-window", "output prefix for merged window files (with -windows)")
		featOut    = flag.String("features", "", "with -cluster-merge: write the merged run's streaming feature rows as versioned CSV to this path (\"-\" = stdout); rows are byte-identical to a single engine reading the whole capture")
		featWindow = flag.Duration("feature-window", time.Second, "feature aggregation window for -features")
	)
	flag.Parse()

	did := false
	if *merge != "" {
		did = true
		if *manifest == "" {
			log.Fatal("-cluster-merge requires -manifest")
		}
		if *ckOut == "" && !*summary && *featOut == "" {
			log.Fatal("-cluster-merge needs at least one output: -checkpoint-out, -summary, and/or -features")
		}
		man, err := cluster.ReadManifest(*manifest)
		if err != nil {
			log.Fatal(err)
		}
		prefixes := splitList(*merge)
		states := make([]string, 0, len(prefixes))
		obsPaths := make([]string, 0, len(prefixes))
		for _, p := range prefixes {
			states = append(states, p+".state.zlcp")
			obsPaths = append(obsPaths, p+".obs")
		}
		obsPaths = append(obsPaths, splitList(*extraObs)...)
		cfg := core.Config{ZoomNetworks: zoomlens.DefaultZoomNetworks()}
		if *featOut != "" {
			// The replayed observation logs feed the aggregator's windower,
			// so the merged feature rows match a single-engine run with the
			// same window.
			fw := *featWindow
			if fw <= 0 {
				fw = time.Second
			}
			cfg.FeatureWindow = fw
		}
		merged, err := aggregate(cfg, man, states, obsPaths)
		if err != nil {
			log.Fatal(err)
		}
		// The checkpoint must capture the pre-Finish state — that is what
		// keeps it restorable as a live engine (and what -restore expects).
		if *ckOut != "" {
			ck := engine.NewCheckpointer(*ckOut, 1, nil)
			if err := ck.WriteFull(merged); err != nil {
				log.Fatal(err)
			}
		}
		if *summary || *featOut != "" {
			merged.Finish()
		}
		if *summary {
			data, err := json.MarshalIndent(merged.Summary(), "", "  ")
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(string(data))
		}
		if *featOut != "" {
			rows := merged.DrainFeatures()
			out := os.Stdout
			if *featOut != "-" {
				out, err = os.Create(*featOut)
				if err != nil {
					log.Fatal(err)
				}
			}
			if err := features.WriteCSV(out, rows); err != nil {
				log.Fatal(err)
			}
			if out != os.Stdout {
				if err := out.Close(); err != nil {
					log.Fatal(err)
				}
			}
			log.Printf("wrote %d feature rows", len(rows))
		}
	}
	if *status != "" {
		did = true
		files := splitList(*status)
		lines := make([][]byte, 0, len(files))
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				log.Fatal(err)
			}
			lines = append(lines, data)
		}
		out, err := mergeStatus(lines)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
	}
	if *metricsIn != "" {
		did = true
		files := splitList(*metricsIn)
		dumps := make([]string, 0, len(files))
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				log.Fatal(err)
			}
			dumps = append(dumps, string(data))
		}
		fmt.Print(mergeProm(dumps))
	}
	if *windows != "" {
		did = true
		n, err := mergeWindowFiles(splitList(*windows), *windowsOut)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("merged %d window(s) under %s", n, *windowsOut)
	}
	if !did {
		log.Fatal("nothing to do: give -cluster-merge, -status, -metrics, or -windows")
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
