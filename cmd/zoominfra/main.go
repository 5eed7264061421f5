// Command zoominfra reproduces the Appendix B infrastructure analysis:
// it sweeps the modeled Zoom address space, resolves reverse DNS, parses
// the zoom<loc><id><type>.<loc>.zoom.us naming scheme, and prints
// Table 7 along with the ownership split of the address space.
//
// With -i it additionally cross-checks a capture against the inventory:
// which Zoom server addresses the trace actually talked to, how the
// observed traffic splits across owners, and which observed endpoints
// fall outside the published networks (the gap Appendix B calls out
// between the advertised footprint and live traffic). The input may be
// classic pcap or pcapng, or "-" for stdin.
//
// Usage:
//
//	zoominfra [-seed 1] [-i zoom.pcap]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/netip"
	"sort"

	"zoomlens"
	"zoomlens/internal/capture"
	"zoomlens/internal/engine"
	"zoomlens/internal/infra"
	"zoomlens/internal/layers"
	"zoomlens/internal/pcap"
)

// owners is every network owner, in report order.
var owners = []infra.Owner{infra.OwnerZoomAS, infra.OwnerAWS, infra.OwnerOracle, infra.OwnerOther}

func main() {
	log.SetFlags(0)
	log.SetPrefix("zoominfra: ")
	var (
		seed = flag.Int64("seed", 1, "inventory seed")
		in   = flag.String("i", "", "optional capture to cross-check against the inventory (pcap/pcapng, \"-\" for stdin)")
	)
	flag.Parse()

	inv := zoomlens.BuildInventory(*seed)
	fmt.Printf("Zoom publishes %d IPv4 networks totalling %d addresses\n\n", len(inv.Networks), inv.TotalAddresses())

	fmt.Println("Address space by owner:")
	shares := inv.OwnerShare()
	for _, owner := range owners {
		fmt.Printf("  %-22s %5.1f%%\n", owner, 100*shares[owner])
	}
	fmt.Println()

	res := inv.Survey()
	fmt.Printf("rDNS sweep: %d addresses scanned, %d resolved to the MMR/ZC naming scheme\n\n", res.Scanned, res.Resolved)
	fmt.Print(zoomlens.Table7(inv))

	if *in != "" {
		if err := crossCheck(inv, *in); err != nil {
			log.Fatal(err)
		}
	}
}

// crossCheck streams a capture through engine.Source and compares the
// server endpoints it observes against the inventory's networks.
func crossCheck(inv *infra.Inventory, path string) error {
	src, err := engine.Open(path)
	if err != nil {
		return err
	}
	defer src.Close()

	inZoom := capture.NewPrefixSet(zoomlens.DefaultZoomNetworks())
	// One prefix set per owner. The inventory's networks are disjoint, so
	// at most one of them claims an address.
	netsOf := make(map[infra.Owner][]netip.Prefix)
	for _, n := range inv.Networks {
		netsOf[n.Owner] = append(netsOf[n.Owner], n.Prefix)
	}
	ownerSets := make([]*capture.PrefixSet, len(owners))
	for i, owner := range owners {
		ownerSets[i] = capture.NewPrefixSet(netsOf[owner])
	}
	ownerOf := func(a netip.Addr) (infra.Owner, bool) {
		for i, set := range ownerSets {
			if set.Contains(a) {
				return owners[i], true
			}
		}
		return 0, false
	}

	var parser layers.Parser
	var pkt layers.Packet
	var rec pcap.Record
	var packets, undecodable uint64
	servers := make(map[netip.Addr]uint64)
	for {
		err := src.NextInto(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		packets++
		if err := parser.Parse(rec.Data, &pkt); err != nil {
			undecodable++
			continue
		}
		for _, a := range []netip.Addr{pkt.SrcAddr(), pkt.DstAddr()} {
			if a.IsValid() && inZoom.Contains(a) {
				servers[a]++
			}
		}
	}

	fmt.Printf("\nCapture cross-check (%d packets", packets)
	if src.Truncated() {
		fmt.Print(", truncated")
	}
	fmt.Printf("):\n")
	if len(servers) == 0 {
		fmt.Println("  no Zoom server addresses observed")
		return nil
	}

	byOwner := make(map[infra.Owner]uint64)
	var unlisted []netip.Addr
	var unlistedPkts uint64
	for a, n := range servers {
		if owner, ok := ownerOf(a); ok {
			byOwner[owner] += n
		} else {
			unlisted = append(unlisted, a)
			unlistedPkts += n
		}
	}
	fmt.Printf("  %d distinct Zoom server addresses observed\n", len(servers))
	fmt.Println("  observed packets by owner:")
	for _, owner := range owners {
		if byOwner[owner] > 0 {
			fmt.Printf("    %-22s %d\n", owner, byOwner[owner])
		}
	}
	if len(unlisted) > 0 {
		sort.Slice(unlisted, func(i, j int) bool { return unlisted[i].Compare(unlisted[j]) < 0 })
		fmt.Printf("  %d observed addresses (%d packets) outside the published networks:\n", len(unlisted), unlistedPkts)
		for i, a := range unlisted {
			if i == 10 {
				fmt.Printf("    ... and %d more\n", len(unlisted)-10)
				break
			}
			fmt.Printf("    %s\n", a)
		}
	}
	if undecodable > 0 {
		fmt.Printf("  %d undecodable frames skipped\n", undecodable)
	}
	return nil
}
