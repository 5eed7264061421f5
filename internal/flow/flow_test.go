package flow

import (
	"net/netip"
	"testing"
	"time"

	"zoomlens/internal/layers"
	"zoomlens/internal/rtp"
	"zoomlens/internal/zoom"
)

var (
	t0  = time.Date(2022, 5, 5, 9, 0, 0, 0, time.UTC)
	ftA = layers.FiveTuple{
		Src: netip.MustParseAddr("10.8.1.2"), Dst: netip.MustParseAddr("52.81.3.4"),
		SrcPort: 52000, DstPort: 8801, Proto: layers.ProtoUDP,
	}
	ftB = layers.FiveTuple{
		Src: netip.MustParseAddr("52.81.3.4"), Dst: netip.MustParseAddr("10.8.9.9"),
		SrcPort: 8801, DstPort: 61000, Proto: layers.ProtoUDP,
	}
)

func mediaRecord(ft layers.FiveTuple, at time.Time, mt zoom.MediaType, pt uint8, ssrc uint32, seq uint16, ts uint32, payloadLen int) *Record {
	z := zoom.Packet{
		ServerBased: true,
		SFU:         zoom.SFUEncap{Type: zoom.SFUTypeMedia},
		Media:       zoom.MediaEncap{Type: mt, Sequence: seq, Timestamp: ts},
		RTP: rtp.Packet{
			Header:  rtp.Header{PayloadType: pt, SequenceNumber: seq, Timestamp: ts, SSRC: ssrc},
			Payload: make([]byte, payloadLen),
		},
	}
	if mt == zoom.TypeVideo {
		z.Media.FrameSequence = seq
		z.Media.PacketsInFrame = 1
	}
	return &Record{Time: at, Flow: ft, WireLen: payloadLen + 70, UDPPayloadLen: payloadLen + 36, Z: z}
}

func rtcpRecord(ft layers.FiveTuple, at time.Time, ssrc uint32) *Record {
	z := zoom.Packet{
		ServerBased: true,
		SFU:         zoom.SFUEncap{Type: zoom.SFUTypeMedia},
		Media:       zoom.MediaEncap{Type: zoom.TypeRTCPSR},
		RTCP:        rtp.CompoundPacket{SenderReports: []rtp.SenderReport{{SSRC: ssrc}}},
	}
	return &Record{Time: at, Flow: ft, WireLen: 90, UDPPayloadLen: 56, Z: z}
}

func TestObserveBuildsStreamsAndSubstreams(t *testing.T) {
	tbl := NewTable()
	// Video stream: main + FEC substreams over one flow.
	for i := 0; i < 10; i++ {
		tbl.Observe(mediaRecord(ftA, t0.Add(time.Duration(i)*33*time.Millisecond), zoom.TypeVideo, zoom.PTVideoMain, 100, uint16(i), uint32(i*2970), 1000))
	}
	for i := 0; i < 3; i++ {
		tbl.Observe(mediaRecord(ftA, t0.Add(time.Duration(i)*100*time.Millisecond), zoom.TypeVideo, zoom.PTFEC, 100, uint16(1000+i), uint32(i*2970), 400))
	}
	// Audio stream on the same flow, different SSRC.
	for i := 0; i < 5; i++ {
		tbl.Observe(mediaRecord(ftA, t0.Add(time.Duration(i)*20*time.Millisecond), zoom.TypeAudio, zoom.PTAudioSpeak, 101, uint16(i), uint32(i*320), 120))
	}

	streams := tbl.Streams()
	if len(streams) != 2 {
		t.Fatalf("streams = %d, want 2", len(streams))
	}
	var video, audio *StreamStats
	for _, s := range streams {
		switch s.ID.Key.Type {
		case zoom.TypeVideo:
			video = s
		case zoom.TypeAudio:
			audio = s
		}
	}
	if video == nil || audio == nil {
		t.Fatal("missing stream kind")
	}
	if video.Packets != 13 {
		t.Errorf("video packets = %d, want 13", video.Packets)
	}
	if len(video.Substreams) != 2 {
		t.Errorf("video substreams = %d, want 2", len(video.Substreams))
	}
	if video.Substream(zoom.PTVideoMain).Packets != 10 || video.Substream(zoom.PTFEC).Packets != 3 {
		t.Errorf("substream split = %+v", video.Substreams)
	}
	if video.Substream(zoom.PTVideoMain).Bytes != 10*1000 || video.Substream(zoom.PTFEC).Bytes != 3*400 {
		t.Errorf("video substream bytes = %+v", video.Substreams)
	}
	if audio.Packets != 5 || audio.Substream(zoom.PTAudioSpeak).Bytes != 600 {
		t.Errorf("audio = %+v", audio)
	}
	if got := tbl.Totals(); got.Flows != 1 || got.Streams != 2 || got.Packets != 18 {
		t.Errorf("totals = %+v", got)
	}
}

func TestSameSSRCDifferentFlowsAreDistinctStreams(t *testing.T) {
	tbl := NewTable()
	tbl.Observe(mediaRecord(ftA, t0, zoom.TypeVideo, zoom.PTVideoMain, 100, 1, 100, 900))
	tbl.Observe(mediaRecord(ftB, t0.Add(20*time.Millisecond), zoom.TypeVideo, zoom.PTVideoMain, 100, 1, 100, 900))
	if got := len(tbl.Streams()); got != 2 {
		t.Errorf("streams = %d, want 2 (SFU copy is a distinct stream record)", got)
	}
}

func TestRTCPAttributedToStream(t *testing.T) {
	tbl := NewTable()
	tbl.Observe(mediaRecord(ftA, t0, zoom.TypeVideo, zoom.PTVideoMain, 100, 1, 100, 900))
	s := tbl.Observe(rtcpRecord(ftA, t0.Add(time.Second), 100))
	if s == nil {
		t.Fatal("RTCP not attributed")
	}
	// The report moves the stream's last-seen time, not its media counts.
	if !s.LastSeen.Equal(t0.Add(time.Second)) || s.Packets != 1 {
		t.Errorf("after the report: last seen %v, %d packets", s.LastSeen, s.Packets)
	}
	// RTCP for an unknown SSRC returns nil but still counts at flow level.
	if got := tbl.Observe(rtcpRecord(ftA, t0.Add(2*time.Second), 999)); got != nil {
		t.Errorf("unknown-SSRC RTCP attributed to %+v", got.ID)
	}
	flows := tbl.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %d", len(flows))
	}
	if got := flows[0].encap(zoom.TypeRTCPSR).Packets; got != 2 {
		t.Errorf("RTCP count = %d", got)
	}
}

func TestEncapSharesTable2Shape(t *testing.T) {
	tbl := NewTable()
	// Construct a trace skewed like Table 2: video dominates packets and
	// bytes, audio second, screen share third, RTCP <1 %.
	for i := 0; i < 660; i++ {
		tbl.Observe(mediaRecord(ftA, t0.Add(time.Duration(i)*time.Millisecond), zoom.TypeVideo, zoom.PTVideoMain, 1, uint16(i), uint32(i), 1100))
	}
	for i := 0; i < 280; i++ {
		tbl.Observe(mediaRecord(ftA, t0.Add(time.Duration(i)*time.Millisecond), zoom.TypeAudio, zoom.PTAudioSpeak, 2, uint16(i), uint32(i), 120))
	}
	for i := 0; i < 40; i++ {
		tbl.Observe(mediaRecord(ftA, t0.Add(time.Duration(i)*time.Millisecond), zoom.TypeScreenShare, zoom.PTScreenShare, 3, uint16(i), uint32(i), 800))
	}
	for i := 0; i < 10; i++ {
		tbl.Observe(rtcpRecord(ftA, t0.Add(time.Duration(i)*time.Second), 1))
	}
	tot := tbl.Totals()
	shares := tbl.EncapShares(tot.Packets, tot.Bytes)
	if shares[0].Type != zoom.TypeVideo {
		t.Errorf("most common type = %v, want video", shares[0].Type)
	}
	var pctSum float64
	byType := map[zoom.MediaType]EncapTypeShare{}
	for _, s := range shares {
		byType[s.Type] = s
		pctSum += s.PacketsPct
	}
	if pctSum < 99.9 || pctSum > 100.1 {
		t.Errorf("packet pct sum = %f", pctSum)
	}
	if !(byType[zoom.TypeVideo].BytesPct > byType[zoom.TypeAudio].BytesPct) {
		t.Error("video should dominate bytes")
	}
	if byType[zoom.TypeRTCPSR].PacketsPct > 2 {
		t.Errorf("RTCP packet share = %f%%, want tiny", byType[zoom.TypeRTCPSR].PacketsPct)
	}
}

func TestPayloadTypeSharesTable3Shape(t *testing.T) {
	tbl := NewTable()
	for i := 0; i < 620; i++ {
		tbl.Observe(mediaRecord(ftA, t0, zoom.TypeVideo, zoom.PTVideoMain, 1, uint16(i), uint32(i), 1100))
	}
	for i := 0; i < 61; i++ {
		tbl.Observe(mediaRecord(ftA, t0, zoom.TypeVideo, zoom.PTFEC, 1, uint16(2000+i), uint32(i), 1000))
	}
	for i := 0; i < 220; i++ {
		tbl.Observe(mediaRecord(ftA, t0, zoom.TypeAudio, zoom.PTAudioSpeak, 2, uint16(i), uint32(i), 120))
	}
	for i := 0; i < 26; i++ {
		tbl.Observe(mediaRecord(ftA, t0, zoom.TypeAudio, zoom.PTAudioSilent, 2, uint16(3000+i), uint32(i), 40))
	}
	tot := tbl.Totals()
	shares := tbl.PayloadTypeShares(tot.Packets, tot.Bytes)
	if len(shares) != 4 {
		t.Fatalf("shares = %d, want 4", len(shares))
	}
	if shares[0].Substream != zoom.SubVideoMain {
		t.Errorf("top substream = %v", shares[0].Substream)
	}
	// The same PT value 99 must stay separated per media type.
	for _, s := range shares {
		if s.PayloadType == 99 && s.Media != zoom.TypeAudio {
			t.Errorf("PT 99 attributed to %v", s.Media)
		}
	}
}
