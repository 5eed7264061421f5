package features

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"zoomlens/internal/rtcproto"
	"zoomlens/internal/zoom"
)

// versionLine is the first line of every feature CSV. Format v2 added the
// proto/app columns (application tags) and the streaming-window layout;
// readers reject other versions.
const versionLine = "#zoomlens-features v2"

// Columns is the CSV header, in emission order.
var Columns = []string{
	"window_start", "window_ms",
	"proto", "app", "ssrc", "media_type", "flow",
	"packets", "wire_bytes", "payload_bytes",
	"pkt_rate", "wire_kbps",
	"iat_mean_ms", "iat_std_ms", "iat_min_ms", "iat_max_ms",
	"bursts", "max_burst_pkts",
	"size_mean_b", "size_std_b", "size_min_b", "size_max_b",
	"size_entropy_bits",
	"seq_lost", "seq_dup", "frame_marks",
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// CSVWriter streams feature rows to one CSV destination: the versioned
// header goes out on construction, each WriteRows call appends, and the
// file is complete after any Flush — so a live tap's periodic drains
// build the same file a batch run would write in one call.
type CSVWriter struct {
	bw *bufio.Writer
}

// NewCSVWriter writes the version line and header and returns a
// streaming writer. Write errors are sticky in the underlying
// bufio.Writer and surface on Flush.
func NewCSVWriter(w io.Writer) *CSVWriter {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, versionLine)
	fmt.Fprintln(bw, strings.Join(Columns, ","))
	return &CSVWriter{bw: bw}
}

// WriteRows appends rows in input order.
func (cw *CSVWriter) WriteRows(rows []Row) {
	for i := range rows {
		writeRow(cw.bw, &rows[i])
	}
}

// Flush pushes buffered lines out and reports the first write error.
func (cw *CSVWriter) Flush() error { return cw.bw.Flush() }

// WriteCSV writes the versioned header followed by one line per row.
// Rows are written in input order; the Windower already emits them
// ordered by (window, stream identity), so the file is deterministic.
func WriteCSV(w io.Writer, rows []Row) error {
	cw := NewCSVWriter(w)
	cw.WriteRows(rows)
	return cw.Flush()
}

func writeRow(bw *bufio.Writer, r *Row) {
	fmt.Fprintf(bw, "%s,%d,%d,%s,%d,%s,%s,%d,%d,%d,%s,%s,%s,%s,%s,%s,%d,%d,%s,%s,%d,%d,%s,%d,%d,%d\n",
		r.Start.UTC().Format(time.RFC3339Nano),
		r.Window.Milliseconds(),
		r.ID.Key.Proto,
		rtcproto.NameOf(r.ID.Key.Proto),
		r.ID.Key.SSRC,
		r.ID.Key.Type,
		r.ID.Flow,
		r.Packets, r.WireBytes, r.PayloadBytes,
		fmtF(r.PktRate()), fmtF(r.WireKbps()),
		fmtF(r.IATMeanMS), fmtF(r.IATStdMS), fmtF(r.IATMinMS), fmtF(r.IATMaxMS),
		r.Bursts, r.MaxBurstPkts,
		fmtF(r.SizeMeanB), fmtF(r.SizeStdB), r.SizeMinB, r.SizeMaxB,
		fmtF(r.SizeEntropy),
		r.SeqLost, r.SeqDup, r.FrameMarks)
}

// ReadCSV parses a feature CSV produced by WriteCSV. The flow column is
// parsed for stream identity only as far as training needs: the SSRC,
// media type, and proto are restored exactly, while Row.ID.Flow is left
// zero (the five-tuple string is not round-tripped — the training and
// evaluation paths key on window and stream fields, not addresses).
func ReadCSV(r io.Reader) ([]Row, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("features: empty input")
	}
	if got := strings.TrimSpace(sc.Text()); got != versionLine {
		return nil, fmt.Errorf("features: bad version line %q (want %q)", got, versionLine)
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("features: missing header")
	}
	if got := strings.TrimSpace(sc.Text()); got != strings.Join(Columns, ",") {
		return nil, fmt.Errorf("features: header mismatch")
	}
	var rows []Row
	line := 2
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		row, err := parseRow(text)
		if err != nil {
			return nil, fmt.Errorf("features: line %d: %w", line, err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rows, nil
}

func parseRow(text string) (Row, error) {
	f := strings.Split(text, ",")
	if len(f) != len(Columns) {
		return Row{}, fmt.Errorf("want %d fields, got %d", len(Columns), len(f))
	}
	var (
		r   Row
		err error
	)
	pErr := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}
	pU64 := func(s string) uint64 {
		v, e := strconv.ParseUint(s, 10, 64)
		pErr(e)
		return v
	}
	pInt := func(s string) int {
		v, e := strconv.Atoi(s)
		pErr(e)
		return v
	}
	pF := func(s string) float64 {
		v, e := strconv.ParseFloat(s, 64)
		pErr(e)
		return v
	}
	start, e := time.Parse(time.RFC3339Nano, f[0])
	pErr(e)
	r.Start = start.UTC()
	r.Window = time.Duration(pU64(f[1])) * time.Millisecond
	proto := pU64(f[2])
	if proto > 255 {
		pErr(fmt.Errorf("proto %d out of range", proto))
	}
	r.ID.Key.Proto = uint8(proto)
	// f[3] (app name) is derived from proto; ignored on read.
	r.ID.Key.SSRC = uint32(pU64(f[4]))
	mt, e := parseMediaType(f[5])
	pErr(e)
	r.ID.Key.Type = mt
	// f[6] (flow) intentionally not round-tripped; see doc comment.
	r.Packets = pU64(f[7])
	r.WireBytes = pU64(f[8])
	r.PayloadBytes = pU64(f[9])
	// f[10]/f[11] (pkt_rate, wire_kbps) are derived; ignored on read.
	r.IATMeanMS = pF(f[12])
	r.IATStdMS = pF(f[13])
	r.IATMinMS = pF(f[14])
	r.IATMaxMS = pF(f[15])
	r.Bursts = pInt(f[16])
	r.MaxBurstPkts = pInt(f[17])
	r.SizeMeanB = pF(f[18])
	r.SizeStdB = pF(f[19])
	r.SizeMinB = pInt(f[20])
	r.SizeMaxB = pInt(f[21])
	r.SizeEntropy = pF(f[22])
	r.SeqLost = pInt(f[23])
	r.SeqDup = pInt(f[24])
	r.FrameMarks = pInt(f[25])
	return r, err
}

// parseMediaType inverts zoom.MediaType.String.
func parseMediaType(s string) (zoom.MediaType, error) {
	switch s {
	case "screenshare":
		return zoom.TypeScreenShare, nil
	case "audio":
		return zoom.TypeAudio, nil
	case "video":
		return zoom.TypeVideo, nil
	case "rtcp-sr":
		return zoom.TypeRTCPSR, nil
	case "rtcp-sr-sdes":
		return zoom.TypeRTCPSRSDES, nil
	}
	var v int
	if _, err := fmt.Sscanf(s, "unknown(%d)", &v); err == nil && v >= 0 && v <= 255 {
		return zoom.MediaType(v), nil
	}
	return 0, fmt.Errorf("bad media_type %q", s)
}
