// Package infra models Zoom's server infrastructure as analyzed in
// Appendix B of the paper: the published IP address list (117 IPv4
// networks, 427,168 addresses split across Zoom's AS30103, AWS, and
// Oracle Cloud), the reverse-DNS naming scheme
// zoom<location><id><type>.<location>.zoom.us for multimedia routers
// (MMR) and zone controllers (ZC) — and implements the analysis pipeline
// (rDNS sweep + per-location aggregation) that regenerates Table 7.
//
// The inventory is synthetic but faithful in structure and totals: 5,452
// MMRs and 256 ZCs distributed over the locations of Table 7.
package infra

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"strings"
)

// ServerType distinguishes the two media-relevant server roles.
type ServerType int

// Server roles.
const (
	MMR ServerType = iota // multimedia router (Zoom's term for its SFU)
	ZC                    // zone controller (STUN endpoint)
)

func (t ServerType) String() string {
	if t == MMR {
		return "mmr"
	}
	return "zc"
}

// Location is a data-center site.
type Location struct {
	// Code is the two-letter site identifier used in hostnames.
	Code string
	// Country and City are for the Table 7 roll-up.
	Country string
	City    string
	// MMRs and ZCs are the server counts at this site.
	MMRs int
	ZCs  int
}

// Locations returns the Table 7 inventory. Counts are the paper's.
func Locations() []Location {
	return []Location{
		{"sc", "United States", "California (multiple)", 1410, 68},
		{"ny", "United States", "New York (New York City)", 1280, 62},
		{"dv", "United States", "Colorado (Denver)", 758, 21},
		{"va", "United States", "Virginia (Washington D.C.)", 166, 4},
		{"se", "United States", "Washington (Seattle)", 96, 12},
		{"am", "Netherlands", "Amsterdam", 419, 21},
		{"hk", "China", "Hongkong", 274, 8},
		{"fr", "Germany", "Frankfurt", 214, 2},
		{"sy", "Australia", "Sydney, Melbourne", 210, 20},
		{"in", "India", "Mumbai, Hyderabad", 196, 10},
		{"ty", "Japan", "Tokyo", 128, 2},
		{"sp", "Brasil", "Sao Paulo", 124, 6},
		{"to", "Canada", "Toronto", 93, 12},
		{"cn", "China", "Mainland", 84, 8},
	}
}

// Owner is an address-space owner.
type Owner int

// Address-space owners per Appendix B.
const (
	OwnerZoomAS Owner = iota // AS30103
	OwnerAWS
	OwnerOracle
	OwnerOther
)

func (o Owner) String() string {
	switch o {
	case OwnerZoomAS:
		return "AS30103 (Zoom)"
	case OwnerAWS:
		return "Amazon Web Services"
	case OwnerOracle:
		return "Oracle Cloud"
	}
	return "Other"
}

// Network is one published prefix with its owner.
type Network struct {
	Prefix netip.Prefix
	Owner  Owner
}

// Inventory is the modeled Zoom footprint.
type Inventory struct {
	Networks []Network
	// rdns maps server addresses to hostnames.
	rdns map[netip.Addr]string
	// locations indexes Locations() by code.
	locations map[string]Location
}

// Networks is the synthetic prefix plan: exactly 117 networks of sizes
// /16../27 summing to exactly 427,168 addresses with the paper's owner
// split, laid out contiguously from 52.81.0.0, each aligned to its size:
//
//	AS30103 156,672 (36.7 %)  AWS 169,152 (39.6 %)
//	Oracle   99,456 (23.3 %)  other 1,888 (0.4 %)
//
// It is Build's Networks without the server placement, for callers that
// need only the prefixes (a capture filter, at every process start).
func Networks() []Network {
	plan := []struct {
		bits  int
		count int
		owner Owner
	}{
		{16, 2, OwnerAWS}, {16, 1, OwnerZoomAS}, {16, 1, OwnerOracle},
		{19, 4, OwnerAWS}, {19, 11, OwnerZoomAS}, {19, 1, OwnerOracle},
		{20, 4, OwnerOracle},
		{22, 5, OwnerAWS}, {22, 1, OwnerZoomAS}, {22, 6, OwnerOracle},
		{24, 3, OwnerOracle},
		{25, 1, OwnerAWS}, {25, 19, OwnerOracle}, {25, 1, OwnerOther},
		{27, 2, OwnerAWS}, {27, 55, OwnerOther},
	}
	var nets []Network
	base := netip.MustParseAddr("52.81.0.0").As4()
	cursor := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
	for _, pl := range plan {
		for i := 0; i < pl.count; i++ {
			size := uint32(1) << (32 - pl.bits)
			// Align cursor to the prefix size.
			if rem := cursor % size; rem != 0 {
				cursor += size - rem
			}
			addr := netip.AddrFrom4([4]byte{byte(cursor >> 24), byte(cursor >> 16), byte(cursor >> 8), byte(cursor)})
			nets = append(nets, Network{
				Prefix: netip.PrefixFrom(addr, pl.bits),
				Owner:  pl.owner,
			})
			cursor += size
		}
	}
	return nets
}

// Build constructs the synthetic inventory: the Networks plan, with the
// MMRs and ZCs of each location assigned addresses inside AS30103 space
// (as the paper observed: all media servers live in Zoom's own AS).
func Build(seed int64) *Inventory {
	rng := rand.New(rand.NewSource(seed))
	inv := &Inventory{
		Networks:  Networks(),
		rdns:      make(map[netip.Addr]string),
		locations: make(map[string]Location),
	}

	// Place servers: MMRs and ZCs get addresses in AS30103 prefixes.
	var zoomNets []Network
	for _, n := range inv.Networks {
		if n.Owner == OwnerZoomAS {
			zoomNets = append(zoomNets, n)
		}
	}
	netIdx, hostIdx := 0, uint32(1)
	nextAddr := func() netip.Addr {
		for {
			n := zoomNets[netIdx]
			size := uint32(1) << (32 - n.Prefix.Bits())
			if hostIdx >= size-1 {
				netIdx = (netIdx + 1) % len(zoomNets)
				hostIdx = 1
				continue
			}
			a := n.Prefix.Addr().As4()
			v := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3]) + hostIdx
			hostIdx++
			return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
		}
	}
	for _, loc := range Locations() {
		inv.locations[loc.Code] = loc
		for i := 0; i < loc.MMRs; i++ {
			a := nextAddr()
			inv.rdns[a] = fmt.Sprintf("zoom%s%dmmr.%s.zoom.us", loc.Code, i+1, loc.Code)
		}
		for i := 0; i < loc.ZCs; i++ {
			a := nextAddr()
			inv.rdns[a] = fmt.Sprintf("zoom%s%dzc.%s.zoom.us", loc.Code, i+1, loc.Code)
		}
	}
	_ = rng
	return inv
}

// TotalAddresses sums the address space of all networks.
func (inv *Inventory) TotalAddresses() int {
	total := 0
	for _, n := range inv.Networks {
		total += 1 << (32 - n.Prefix.Bits())
	}
	return total
}

// OwnerShare returns the fraction of address space per owner.
func (inv *Inventory) OwnerShare() map[Owner]float64 {
	total := float64(inv.TotalAddresses())
	out := map[Owner]float64{}
	for _, n := range inv.Networks {
		out[n.Owner] += float64(int(1)<<(32-n.Prefix.Bits())) / total
	}
	return out
}

// ReverseDNS performs the modeled rDNS lookup.
func (inv *Inventory) ReverseDNS(a netip.Addr) (string, bool) {
	name, ok := inv.rdns[a]
	return name, ok
}

// ParsedName is the result of decoding a hostname against the scheme
// zoom<location><id><type>.<location>.zoom.us.
type ParsedName struct {
	Location string
	ID       int
	Type     ServerType
}

// ParseName decodes a hostname; ok is false for names outside the
// scheme.
func ParseName(name string) (ParsedName, bool) {
	var p ParsedName
	rest, found := strings.CutPrefix(name, "zoom")
	if !found {
		return p, false
	}
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return p, false
	}
	head := rest[:dot]
	tail := rest[dot+1:]
	var typ ServerType
	switch {
	case strings.HasSuffix(head, "mmr"):
		typ = MMR
		head = strings.TrimSuffix(head, "mmr")
	case strings.HasSuffix(head, "zc"):
		typ = ZC
		head = strings.TrimSuffix(head, "zc")
	default:
		return p, false
	}
	// head is now <location><id> where location is two letters.
	if len(head) < 3 {
		return p, false
	}
	loc := head[:2]
	var id int
	if _, err := fmt.Sscanf(head[2:], "%d", &id); err != nil {
		return p, false
	}
	if !strings.HasPrefix(tail, loc+".zoom.us") {
		return p, false
	}
	return ParsedName{Location: loc, ID: id, Type: typ}, true
}

// LocationCount is one row of Table 7.
type LocationCount struct {
	Country string
	City    string
	MMRs    int
	ZCs     int
}

// SurveyResult is the full Table 7 reproduction.
type SurveyResult struct {
	Rows     []LocationCount
	TotalMMR int
	TotalZC  int
	// Resolved counts addresses whose rDNS matched the scheme.
	Resolved int
	Scanned  int
}

// Survey sweeps every address of every network, resolving rDNS, parsing
// the naming scheme and aggregating counts per location — the Appendix B
// methodology, less its GeoIP cross-check.
func (inv *Inventory) Survey() SurveyResult {
	var res SurveyResult
	counts := map[string]*LocationCount{}
	for _, n := range inv.Networks {
		for a := n.Prefix.Addr(); n.Prefix.Contains(a); a = a.Next() {
			res.Scanned++
			name, ok := inv.ReverseDNS(a)
			if !ok {
				continue
			}
			p, ok := ParseName(name)
			if !ok {
				continue
			}
			res.Resolved++
			loc, known := inv.locations[p.Location]
			if !known {
				continue
			}
			lc := counts[p.Location]
			if lc == nil {
				lc = &LocationCount{Country: loc.Country, City: loc.City}
				counts[p.Location] = lc
			}
			if p.Type == MMR {
				lc.MMRs++
				res.TotalMMR++
			} else {
				lc.ZCs++
				res.TotalZC++
			}
		}
	}
	for _, lc := range counts {
		res.Rows = append(res.Rows, *lc)
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		if res.Rows[i].MMRs != res.Rows[j].MMRs {
			return res.Rows[i].MMRs > res.Rows[j].MMRs
		}
		return res.Rows[i].City < res.Rows[j].City
	})
	return res
}
