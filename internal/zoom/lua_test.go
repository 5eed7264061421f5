package zoom

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"zoomlens/internal/sim"
)

func TestGenerateLuaDissectorStructure(t *testing.T) {
	src := GenerateLuaDissector()
	for _, want := range []string{
		`Proto("zoom"`,
		`Dissector.get("rtp")`,
		`Dissector.get("rtcp")`,
		`DissectorTable.get("udp.port"):add(8801, zoom)`,
		"zoom.media.frame_seq",
		"zoom.sfu.direction",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("dissector missing %q", want)
		}
	}
	// Every media type value and its header length must appear in the
	// generated tables (keeping the plugin in lockstep with the codec).
	for _, mt := range []MediaType{TypeScreenShare, TypeAudio, TypeVideo, TypeRTCPSR, TypeRTCPSRSDES} {
		typeEntry := "[" + itoa(int(mt)) + "] = "
		if strings.Count(src, typeEntry) != 2 { // name table + length table
			t.Errorf("type %d appears %d times, want 2", mt, strings.Count(src, typeEntry))
		}
		lenEntry := itoa(mt.HeaderLen())
		if !strings.Contains(src, "= "+lenEntry+",") {
			t.Errorf("header length %s for %v missing", lenEntry, mt)
		}
	}
	// Cheap syntactic sanity: parens balance and every block has an end.
	if strings.Count(src, "(") != strings.Count(src, ")") {
		t.Error("unbalanced parentheses in generated Lua")
	}
	ends := strings.Count(src, "end")
	blocks := strings.Count(src, "function") + strings.Count(src, "if ")
	if ends < blocks {
		t.Errorf("blocks=%d ends=%d: missing end?", blocks, ends)
	}
}

// TestLuaDissectorFieldsTable1 holds every field the generated
// dissector reads, tvb(offset,length), to a row of the simulator's
// transcription of Table 1, and every row to a field the dissector reads.
func TestLuaDissectorFieldsTable1(t *testing.T) {
	src := GenerateLuaDissector()
	// Each field is added to its encapsulation's subtree: sfu or sub.
	read := map[string]bool{}
	for _, m := range regexp.MustCompile(`(sfu|sub):add\(f_\w+, tvb\((\d+),(\d+)\)\)`).FindAllStringSubmatch(src, -1) {
		read[m[1]+" "+m[2]+","+m[3]] = true
	}
	rows := map[string]bool{}
	for _, e := range []struct {
		tree  string
		encap sim.Encapsulation
	}{{"sfu", sim.SFUEncapsulation}, {"sub", sim.MediaEncapsulation}} {
		for _, f := range e.encap.Fields {
			rows[e.tree+" "+strconv.Itoa(f.Offset)+","+strconv.Itoa(f.Width)] = true
		}
	}
	if len(read) == 0 {
		t.Fatal("no tvb(offset,length) field reads in the generated dissector")
	}
	for r := range read {
		if !rows[r] {
			t.Errorf("the dissector reads %s, which no Table 1 row of the transcription gives", r)
		}
	}
	for r := range rows {
		if !read[r] {
			t.Errorf("the transcription's Table 1 row %s is not read by the dissector", r)
		}
	}
	// Any other fixed-offset read: the type byte the dissector branches on.
	for _, m := range regexp.MustCompile(`tvb\((\d+),(\d+)\)`).FindAllStringSubmatch(src, -1) {
		if !rows["sfu "+m[1]+","+m[2]] && !rows["sub "+m[1]+","+m[2]] {
			t.Errorf("the dissector reads tvb(%s,%s), which matches no Table 1 row", m[1], m[2])
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}
