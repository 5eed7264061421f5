package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net/netip"
	"strings"
	"testing"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/obs"
	"zoomlens/internal/rtcproto"
	"zoomlens/internal/sim"
	"zoomlens/internal/stun"
	"zoomlens/internal/zoom"
)

// TestSTUNPortRequiresFraming is the regression test for the port-3478
// misclassification: a packet that merely lands on the well-known STUN
// port but lacks STUN framing must NOT count as STUN — it is counted in
// STUNPortNonSTUN and falls through to the protocol decoders.
func TestSTUNPortRequiresFraming(t *testing.T) {
	a := NewAnalyzer(Config{PreFiltered: true})
	src := netip.MustParseAddrPort("10.8.0.10:3478")
	dst := netip.MustParseAddrPort("203.0.113.7:8801")
	at := time.Unix(1700000000, 0)

	// A Zoom media packet whose source port happens to be 3478.
	h := sim.Header{Layout: sim.LayoutP2P, Kind: sim.KindAudio, MediaSeq: 1, MediaTS: 48000,
		PT: sim.PTAudioSpeak, Seq: 1, TS: 48000, SSRC: 11}
	a.Packet(at, layers.EthernetIPv4UDP(src, dst, 64, append(sim.AppendHeaders(nil, &h), make([]byte, 60)...)))

	if a.STUNPackets != 0 {
		t.Errorf("STUNPackets = %d, want 0 (no STUN framing)", a.STUNPackets)
	}
	if a.STUNPortNonSTUN != 1 {
		t.Errorf("STUNPortNonSTUN = %d, want 1", a.STUNPortNonSTUN)
	}
	if a.ProtoDecoded[rtcproto.IDZoom] != 1 {
		t.Errorf("ProtoDecoded[zoom] = %d, want 1 (packet must fall through to the decoders)", a.ProtoDecoded[rtcproto.IDZoom])
	}

	// A real STUN packet on the same port counts as STUN, and not in the
	// mismatch counter.
	msg := stun.NewBindingRequest(stun.TransactionID{9})
	a.Packet(at.Add(time.Millisecond), layers.EthernetIPv4UDP(src, dst, 64, msg.Marshal()))
	if a.STUNPackets != 1 {
		t.Errorf("STUNPackets = %d, want 1", a.STUNPackets)
	}
	if a.STUNPortNonSTUN != 1 {
		t.Errorf("STUNPortNonSTUN = %d, want 1 (true STUN must not count)", a.STUNPortNonSTUN)
	}
}

// webrtcMediaFrames synthesizes a small standards-RTC exchange: an ICE
// STUN handshake from the campus client's bundled media port, then
// bidirectional RTP between client and an off-Zoom media server.
func webrtcMediaFrames(t *testing.T, client, server netip.AddrPort) (frames [][]byte, times []time.Time) {
	t.Helper()
	at := time.Unix(1700000000, 0)
	add := func(f []byte) {
		frames = append(frames, f)
		times = append(times, at)
		at = at.Add(10 * time.Millisecond)
	}
	// ICE connectivity check: client media port ↔ server STUN port.
	stunSrv := netip.AddrPortFrom(server.Addr(), stun.Port)
	tid := stun.TransactionID{1, 2, 3}
	req := stun.NewBindingRequest(tid)
	add(layers.EthernetIPv4UDP(client, stunSrv, 64, req.Marshal()))
	resp := stun.NewBindingResponse(tid, client)
	add(layers.EthernetIPv4UDP(stunSrv, client, 57, resp.Marshal()))
	// Media: Opus up, VP8 down, same bundled flow.
	for i := 0; i < 40; i++ {
		up := sim.Header{Layout: sim.LayoutBare, Kind: sim.KindAudio,
			PT: 111, Seq: uint16(100 + i), TS: uint32(48000 + 960*i), SSRC: 0xaaaa0001}
		add(layers.EthernetIPv4UDP(client, server, 64, append(sim.AppendHeaders(nil, &up), make([]byte, 80)...)))
		down := sim.Header{Layout: sim.LayoutBare, Kind: sim.KindVideo,
			PT: 96, Seq: uint16(500 + i), TS: uint32(90000 + 3000*i), SSRC: 0xbbbb0002, Marker: i%2 == 1}
		add(layers.EthernetIPv4UDP(server, client, 57, append(sim.AppendHeaders(nil, &down), make([]byte, 1000)...)))
	}
	return frames, times
}

// TestWebRTCEndToEnd drives a standards-RTC exchange through the full
// unfiltered pipeline: the ICE STUN handshake must arm the capture
// filter (GenericRTC mode — the server is NOT in a Zoom prefix), and the
// media must decode under the webrtc plugin into proto-tagged streams
// and a webrtc meeting.
func TestWebRTCEndToEnd(t *testing.T) {
	client := netip.MustParseAddrPort("10.8.0.10:50000")
	server := netip.MustParseAddrPort("198.51.100.40:50004")
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")},
		CampusNetworks: []netip.Prefix{netip.MustParsePrefix("10.8.0.0/16")},
	}
	a := NewAnalyzer(cfg)
	frames, times := webrtcMediaFrames(t, client, server)
	for i, f := range frames {
		a.Packet(times[i], f)
	}
	a.Finish()

	if a.DroppedByFilter != 0 {
		t.Errorf("DroppedByFilter = %d, want 0 (STUN must arm the generic filter)", a.DroppedByFilter)
	}
	if a.ProtoDecoded[rtcproto.IDWebRTC] != 80 {
		t.Errorf("ProtoDecoded[webrtc] = %d, want 80", a.ProtoDecoded[rtcproto.IDWebRTC])
	}
	if a.ZoomUDP != 0 {
		t.Errorf("ZoomUDP = %d, want 0 (nothing here is Zoom)", a.ZoomUDP)
	}
	ids := streamIDs(a.Result())
	if len(ids) != 2 {
		t.Fatalf("streams = %d, want 2 (audio up, video down)", len(ids))
	}
	kinds := map[zoom.MediaType]bool{}
	for _, id := range ids {
		if id.Key.Proto != uint8(rtcproto.IDWebRTC) {
			t.Errorf("stream %v proto = %d, want webrtc", id, id.Key.Proto)
		}
		kinds[id.Key.Type] = true
	}
	if !kinds[zoom.TypeAudio] || !kinds[zoom.TypeVideo] {
		t.Errorf("stream kinds = %v, want audio and video", kinds)
	}
	ms := a.Meetings()
	if len(ms) != 1 {
		t.Fatalf("meetings = %d, want 1", len(ms))
	}
	if ms[0].Proto != uint8(rtcproto.IDWebRTC) {
		t.Errorf("meeting proto = %d, want webrtc", ms[0].Proto)
	}
	reps := a.MeetingReports()
	if len(reps) != 1 || reps[0].App != "webrtc" {
		t.Fatalf("meeting reports = %+v, want one webrtc report", reps)
	}
}

// TestProtoPinnedToZoom pins the plugin set to Zoom alone: standards RTP
// then counts as undecodable instead of being claimed by the webrtc
// plugin, and GenericRTC filter arming is off (the ICE STUN exchange
// with a non-Zoom server no longer arms media flows).
func TestProtoPinnedToZoom(t *testing.T) {
	client := netip.MustParseAddrPort("10.8.0.10:50000")
	server := netip.MustParseAddrPort("198.51.100.40:50004")
	cfg := Config{
		ZoomNetworks:   []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")},
		CampusNetworks: []netip.Prefix{netip.MustParsePrefix("10.8.0.0/16")},
		Protos:         []rtcproto.Plugin{rtcproto.Zoom()},
	}
	a := NewAnalyzer(cfg)
	frames, times := webrtcMediaFrames(t, client, server)
	for i, f := range frames {
		a.Packet(times[i], f)
	}
	a.Finish()
	if a.ProtoDecoded[rtcproto.IDWebRTC] != 0 {
		t.Errorf("ProtoDecoded[webrtc] = %d, want 0 with -proto zoom", a.ProtoDecoded[rtcproto.IDWebRTC])
	}
	if got := a.DroppedByFilter; got == 0 {
		t.Error("DroppedByFilter = 0, want the RTP flow dropped (GenericRTC arming off)")
	}
	if n := len(a.Streams()); n != 0 {
		t.Errorf("streams = %d, want 0", n)
	}
}

// TestCheckpointRejected pins the one-version-per-format rule: a file
// whose file version or payload version is anything but the current
// one, a file without its CRC trailer, and a delta record offered as a
// bootstrap checkpoint are each rejected with the reason in the error —
// and before any engine is built (an engine registers its metrics on
// construction, so an untouched registry proves none was).
func TestCheckpointRejected(t *testing.T) {
	tr, opts := seededTrace(t, 1)
	a := NewAnalyzer(Config{ZoomNetworks: []netip.Prefix{opts.ZoomNet}})
	for i := 0; i < 50; i++ {
		a.Packet(tr.at[i], tr.frames[i])
	}
	var full, delta bytes.Buffer
	if err := a.Checkpoint(&full); err != nil {
		t.Fatal(err)
	}
	a.Packet(tr.at[50], tr.frames[50])
	if err := a.CheckpointDelta(&delta); err != nil {
		t.Fatal(err)
	}
	// patch returns the full checkpoint with one header byte replaced and
	// the CRC trailer recomputed, so the patched byte is the only fault.
	patch := func(off int, v byte) []byte {
		b := bytes.Clone(full.Bytes())
		b[off] = v
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], crcTable))
		return b
	}
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"file version", "file version 2 (supported: 1)", patch(len(checkpointMagic), 2)},
		{"payload version", "state version 14 (supported: 13)", patch(len(checkpointMagic)+2, 14)},
		{"payload version 1", "state version 1 (supported: 13)", patch(len(checkpointMagic)+2, 1)},
		{"payload version 2", "state version 2 (supported: 13)", patch(len(checkpointMagic)+2, 2)},
		{"payload version 3", "state version 3 (supported: 13)", patch(len(checkpointMagic)+2, 3)},
		{"payload version 4", "state version 4 (supported: 13)", patch(len(checkpointMagic)+2, 4)},
		{"payload version 5", "state version 5 (supported: 13)", patch(len(checkpointMagic)+2, 5)},
		{"payload version 6", "state version 6 (supported: 13)", patch(len(checkpointMagic)+2, 6)},
		{"payload version 7", "state version 7 (supported: 13)", patch(len(checkpointMagic)+2, 7)},
		{"payload version 8", "state version 8 (supported: 13)", patch(len(checkpointMagic)+2, 8)},
		{"payload version 9", "state version 9 (supported: 13)", patch(len(checkpointMagic)+2, 9)},
		{"payload version 10", "state version 10 (supported: 13)", patch(len(checkpointMagic)+2, 10)},
		{"payload version 11", "state version 11 (supported: 13)", patch(len(checkpointMagic)+2, 11)},
		{"payload version 12", "state version 12 (supported: 13)", patch(len(checkpointMagic)+2, 12)},
		{"trailerless", "CRC mismatch", full.Bytes()[:full.Len()-4]},
		{"delta kind", "delta record cannot bootstrap", delta.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			eng, err := RestoreAnalyzer(bytes.NewReader(tc.data), Config{Obs: reg})
			if err == nil || eng != nil {
				t.Fatalf("restore = (%v, %v), want rejection", eng, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not say %q", err, tc.want)
			}
			if out := promDump(t, reg); out != "" {
				t.Errorf("an engine was built before the rejection:\n%s", out)
			}
		})
	}
}
