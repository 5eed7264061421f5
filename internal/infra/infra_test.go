package infra

import (
	"math"
	"net/netip"
	"testing"
)

func TestInventoryTotalsMatchAppendixB(t *testing.T) {
	inv := Build(1)
	if got := len(inv.Networks); got != 117 {
		t.Errorf("networks = %d, want 117", got)
	}
	if got := inv.TotalAddresses(); got != 427168 {
		t.Errorf("addresses = %d, want 427168", got)
	}
	shares := inv.OwnerShare()
	want := map[Owner]float64{
		OwnerZoomAS: 0.367,
		OwnerAWS:    0.396,
		OwnerOracle: 0.232,
		OwnerOther:  0.005,
	}
	for owner, w := range want {
		if got := shares[owner]; math.Abs(got-w) > 0.01 {
			t.Errorf("%v share = %.4f, want ≈%.3f", owner, got, w)
		}
	}
	// Prefix sizes within /16../27.
	for _, n := range inv.Networks {
		if n.Prefix.Bits() < 16 || n.Prefix.Bits() > 27 {
			t.Errorf("prefix %v outside /16../27", n.Prefix)
		}
	}
}

func TestNamingSchemeRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		want ParsedName
		ok   bool
	}{
		{"zoomny12mmr.ny.zoom.us", ParsedName{"ny", 12, MMR}, true},
		{"zoomsc1zc.sc.zoom.us", ParsedName{"sc", 1, ZC}, true},
		{"zoomfr214mmr.fr.zoom.us", ParsedName{"fr", 214, MMR}, true},
		{"www.zoom.us", ParsedName{}, false},
		{"zoomnyxmmr.ny.zoom.us", ParsedName{}, false},
		{"zoomny12mmr.dv.zoom.us", ParsedName{}, false}, // site mismatch
		{"zoomny12xyz.ny.zoom.us", ParsedName{}, false},
	}
	for _, c := range cases {
		got, ok := ParseName(c.name)
		if ok != c.ok {
			t.Errorf("ParseName(%q) ok = %v, want %v", c.name, ok, c.ok)
			continue
		}
		if ok && got != c.want {
			t.Errorf("ParseName(%q) = %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestSurveyReproducesTable7(t *testing.T) {
	inv := Build(1)
	res := inv.Survey()
	if res.TotalMMR != 5452 {
		t.Errorf("total MMRs = %d, want 5452", res.TotalMMR)
	}
	if res.TotalZC != 256 {
		t.Errorf("total ZCs = %d, want 256", res.TotalZC)
	}
	if res.Scanned != 427168 {
		t.Errorf("scanned = %d, want full sweep", res.Scanned)
	}
	if res.Resolved != 5452+256 {
		t.Errorf("resolved = %d", res.Resolved)
	}
	if len(res.Rows) != 14 {
		t.Fatalf("rows = %d, want 14", len(res.Rows))
	}
	// Rows are ordered by MMR count: California first, NYC second.
	if res.Rows[0].City != "California (multiple)" || res.Rows[0].MMRs != 1410 || res.Rows[0].ZCs != 68 {
		t.Errorf("row 0 = %+v", res.Rows[0])
	}
	if res.Rows[1].City != "New York (New York City)" || res.Rows[1].MMRs != 1280 {
		t.Errorf("row 1 = %+v", res.Rows[1])
	}
	// US total: 3,710 MMRs / 167 ZCs.
	var usMMR, usZC int
	for _, r := range res.Rows {
		if r.Country == "United States" {
			usMMR += r.MMRs
			usZC += r.ZCs
		}
	}
	if usMMR != 3710 || usZC != 167 {
		t.Errorf("US totals = %d/%d, want 3710/167", usMMR, usZC)
	}
}

func TestServersLiveInZoomAS(t *testing.T) {
	inv := Build(1)
	// Every rDNS-known server address must fall inside an AS30103
	// prefix (the paper found all MMR/ZC names inside Zoom's own AS).
	var zoomNets []netip.Prefix
	for _, n := range inv.Networks {
		if n.Owner == OwnerZoomAS {
			zoomNets = append(zoomNets, n.Prefix)
		}
	}
	checked := 0
	for a := range inv.rdns {
		inZoom := false
		for _, p := range zoomNets {
			if p.Contains(a) {
				inZoom = true
				break
			}
		}
		if !inZoom {
			t.Fatalf("server %v outside AS30103 space", a)
		}
		checked++
	}
	if checked != 5708 {
		t.Errorf("servers = %d, want 5708", checked)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, b := Build(7), Build(7)
	if len(a.Networks) != len(b.Networks) {
		t.Fatal("network counts differ")
	}
	for i := range a.Networks {
		if a.Networks[i] != b.Networks[i] {
			t.Fatalf("network %d differs", i)
		}
	}
	ra, rb := a.Survey(), b.Survey()
	if ra.TotalMMR != rb.TotalMMR || ra.TotalZC != rb.TotalZC {
		t.Error("survey differs across builds")
	}
}
