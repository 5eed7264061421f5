package zoomlens

import (
	"fmt"

	"zoomlens/internal/analysis"
	"zoomlens/internal/capture"
	"zoomlens/internal/flow"
	"zoomlens/internal/infra"
	"zoomlens/internal/sim"
	"zoomlens/internal/zoom"
)

// This file regenerates the paper's tables. Table 1/4 are structural
// (they describe the format and the metric capability matrix and are
// verified by the codec test suites); Tables 2/3/6 come from a campus
// run; Table 5 from the P4 resource model; Table 7 from the
// infrastructure survey.

// Table1 renders the cleartext header-field table (Table 1) from the
// simulator's transcription of the wire format, the one the generated
// traffic is written from; the golden frames pin the parser to the same
// rows.
func Table1() *TextTable {
	t := &TextTable{
		Title:   "Table 1: Select Header Fields in Cleartext",
		Headers: []string{"Field Name", "Byte Range", "Comment"},
	}
	for _, e := range []sim.Encapsulation{sim.SFUEncapsulation, sim.MediaEncapsulation} {
		t.AddRow(e.Name, "", "")
		for _, f := range e.Fields {
			span := fmt.Sprint(f.Offset)
			if f.Width > 1 {
				span = fmt.Sprintf("%d-%d", f.Offset, f.Offset+f.Width-1)
			}
			t.AddRow("- "+f.Name, span, f.Comment)
		}
	}
	return t
}

// Table2 renders the media-encapsulation type shares of a campus run
// (Table 2): type value, payload kind, RTP/RTCP offset, % packets, %
// bytes. Denominators are all captured Zoom UDP packets (decodable or
// not).
func Table2(r *CampusResult) *TextTable {
	shares := r.Analyzer.Flows.EncapShares(r.Analyzer.UDPKeptPackets, r.Analyzer.UDPKeptBytes)

	t := &TextTable{
		Title:   "Table 2: Zoom Media Encapsulation Type Values",
		Headers: []string{"Value", "Packet Type", "Offset", "% Pkts", "% Bytes"},
	}
	desc := map[MediaType]string{
		TypeVideo:       "RTP: video",
		TypeAudio:       "RTP: audio",
		TypeScreenShare: "RTP: screen share",
		TypeRTCPSRSDES:  "RTCP: SR + SDES",
		TypeRTCPSR:      "RTCP: SR",
	}
	var pktSum, byteSum float64
	for _, s := range shares {
		t.AddRow(
			fmt.Sprintf("%d", uint8(s.Type)),
			desc[s.Type],
			fmt.Sprintf("%d", s.Type.HeaderLen()),
			analysis.F(s.PacketsPct, 2),
			analysis.F(s.BytesPct, 2),
		)
		pktSum += s.PacketsPct
		byteSum += s.BytesPct
	}
	t.AddRow("", "Sum:", "", analysis.F(pktSum, 2), analysis.F(byteSum, 2))
	return t
}

// Table2Shares exposes the raw Table 2 rows for assertions.
func Table2Shares(r *CampusResult) []flow.EncapTypeShare {
	return r.Analyzer.Flows.EncapShares(r.Analyzer.UDPKeptPackets, r.Analyzer.UDPKeptBytes)
}

// Table3 renders the RTP payload-type mix (Table 3).
func Table3(r *CampusResult) *TextTable {
	shares := r.Analyzer.Flows.PayloadTypeShares(r.Analyzer.UDPKeptPackets, r.Analyzer.UDPKeptBytes)
	t := &TextTable{
		Title:   "Table 3: RTP Payload Type Values in Trace",
		Headers: []string{"Media Type", "RTP PT", "Description", "% Pkts", "% Bytes"},
	}
	descr := map[Substream]string{
		zoom.SubVideoMain:       "main stream",
		zoom.SubAudioSpeaking:   "speaking mode",
		zoom.SubVideoFEC:        "FEC",
		zoom.SubScreenShareMain: "main stream",
		zoom.SubAudioMobile:     "mode unknown",
		zoom.SubAudioSilent:     "silent mode",
		zoom.SubAudioFEC:        "FEC",
	}
	for _, s := range shares {
		t.AddRow(
			fmt.Sprintf("%s (%d)", s.Media, uint8(s.Media)),
			fmt.Sprintf("%d", s.PayloadType),
			descr[s.Substream],
			analysis.F(s.PacketsPct, 2),
			analysis.F(s.BytesPct, 2),
		)
	}
	return t
}

// Table3Shares exposes the raw Table 3 rows for assertions.
func Table3Shares(r *CampusResult) []flow.PayloadTypeShare {
	return r.Analyzer.Flows.PayloadTypeShares(r.Analyzer.UDPKeptPackets, r.Analyzer.UDPKeptBytes)
}

// MetricCapability is one row of Table 4.
type MetricCapability struct {
	Metric          string
	Section         string
	RequiresHeaders bool
	InZoomClient    bool
	Validated       string // figure reference, or ""
}

// Table4Matrix returns the metric capability matrix (Table 4). Each row
// is implemented by this library; the RequiresHeaders column records
// whether computing it needs the parsed Zoom headers.
func Table4Matrix() []MetricCapability {
	return []MetricCapability{
		{"Overall Bit Rate", "§5.1", false, false, ""},
		{"Media Bit Rate", "§5.1", true, false, ""},
		{"Frame Rate", "§5.2", true, true, "Fig. 10a"},
		{"Frame Size", "§5.2", true, false, ""},
		{"Latency", "§5.3", true, true, "Fig. 10b"},
		{"Jitter", "§5.4", true, true, "Fig. 10c"},
	}
}

// Table4 renders the matrix.
func Table4() *TextTable {
	t := &TextTable{
		Title:   "Table 4: Key Zoom Performance and Quality Metrics",
		Headers: []string{"Metric", "Requires Headers", "Available in Z. Client", "Validated"},
	}
	mark := func(b bool) string {
		if b {
			return "+"
		}
		return ""
	}
	for _, m := range Table4Matrix() {
		t.AddRow(m.Metric+" ("+m.Section+")", mark(m.RequiresHeaders), mark(m.InZoomClient), m.Validated)
	}
	return t
}

// Table5 renders the P4 pipeline resource model (Table 5).
func Table5() string {
	return "Table 5: Hardware Resource Usage of the Tofino-based Capture Program\n" +
		capture.FormatTable(capture.DefaultPipelineModel().Resources(capture.DefaultTofinoBudget()))
}

// Table5Reports exposes the raw rows for assertions.
func Table5Reports() []capture.UsageReport {
	return capture.DefaultPipelineModel().Resources(capture.DefaultTofinoBudget())
}

// Table6 renders the capture summary of a campus run (Table 6).
func Table6(r *CampusResult) *TextTable {
	s := r.Analyzer.Summary()
	t := &TextTable{
		Title:   "Table 6: Capture Summary",
		Headers: []string{"Quantity", "Value"},
	}
	t.AddRow("Capture duration", s.Duration.String())
	perSec := float64(0)
	if s.Duration > 0 {
		perSec = float64(s.Packets) / s.Duration.Seconds()
	}
	t.AddRow("Zoom packets", fmt.Sprintf("%d (%.0f/s)", s.Packets, perSec))
	t.AddRow("Zoom flows", fmt.Sprintf("%d", s.Flows))
	mbps := float64(0)
	if s.Duration > 0 {
		mbps = float64(s.Bytes) * 8 / s.Duration.Seconds() / 1e6
	}
	t.AddRow("Zoom data", fmt.Sprintf("%d MB (%.1f Mbit/s)", s.Bytes/1e6, mbps))
	t.AddRow("RTP media streams", fmt.Sprintf("%d", s.Streams))
	t.AddRow("Meetings (inferred)", fmt.Sprintf("%d", s.Meetings))
	return t
}

// Table7 renders the server-location survey (Table 7).
func Table7(inv *Inventory) *TextTable {
	res := inv.Survey()
	t := &TextTable{
		Title:   "Table 7: Locations of Zoom Servers",
		Headers: []string{"Location", "# MMRs", "# ZCs"},
	}
	// US aggregate first, as the paper prints it.
	var usMMR, usZC int
	for _, r := range res.Rows {
		if r.Country == "United States" {
			usMMR += r.MMRs
			usZC += r.ZCs
		}
	}
	t.AddRow("United States (all)", fmt.Sprintf("%d", usMMR), fmt.Sprintf("%d", usZC))
	for _, r := range res.Rows {
		name := r.Country + " (" + r.City + ")"
		if r.Country == "United States" {
			name = "- " + r.City
		}
		t.AddRow(name, fmt.Sprintf("%d", r.MMRs), fmt.Sprintf("%d", r.ZCs))
	}
	t.AddRow("Total", fmt.Sprintf("%d", res.TotalMMR), fmt.Sprintf("%d", res.TotalZC))
	return t
}

// Table7Survey exposes the raw survey for assertions.
func Table7Survey(inv *Inventory) infra.SurveyResult { return inv.Survey() }
