// Package rtcproto defines the protocol-plugin boundary that turns the
// Zoom-specific decode path into a pluggable RTC protocol family
// (ROADMAP item 3; Chang et al. measure Zoom/Webex/Meet side by side
// with exactly this structure). A Plugin recognizes and decodes one
// application's UDP media encapsulation into a normalized MediaObs;
// the analysis pipeline above the decode (flow/stream demux, meeting
// grouping, QoE metrics) is protocol-agnostic and consumes MediaObs
// only.
//
// The normalized media container is zoom.Packet: Zoom's encapsulation
// is a strict superset of standards RTP (SFU framing + media framing +
// RTP), so every other protocol maps onto its media-type + RTP fields
// with the extra framing left zero. zoom.StreamKey carries the plugin's
// ID in its Proto field, so streams from different applications never
// collide anywhere downstream (dedup, metrics, checkpoints, reports).
//
// Probe order is deterministic: zoom before webrtc, because Zoom's
// type-byte grammar (first byte 5/13/15/16/33/34) and the RTP version
// bits (first byte 0x80–0xBF) are disjoint — zoom is cheaper to reject
// and more specific to accept. A registry built by ParseSet preserves
// this canonical order regardless of how the user spells the list, so
// the same flags always produce the same classification (the
// byte-identical differential invariant depends on it).
package rtcproto

import (
	"fmt"
	"strings"

	"zoomlens/internal/webrtc"
	"zoomlens/internal/zoom"
)

// ID identifies a protocol plugin. The value is stored in
// zoom.StreamKey.Proto and serialized into checkpoints, deltas, and
// cluster observation logs — assigned values are wire format and must
// never be renumbered.
type ID uint8

// Assigned plugin IDs. IDZoom is 0 so that every pre-existing
// StreamKey literal (constructed throughout the Zoom pipeline without
// naming Proto) denotes a Zoom stream.
const (
	IDZoom   ID = 0
	IDWebRTC ID = 1
	// NumIDs is the number of assigned IDs (array-sizing constant for
	// per-protocol counters).
	NumIDs = 2
)

func (id ID) String() string {
	switch id {
	case IDZoom:
		return "zoom"
	case IDWebRTC:
		return "webrtc"
	}
	return fmt.Sprintf("proto(%d)", uint8(id))
}

// MediaObs is one decoded media observation: the protocol that claimed
// the packet plus the normalized packet content.
type MediaObs struct {
	Proto ID
	// Pkt is the normalized media container (see the package comment).
	// For non-Zoom protocols ServerBased is false and the SFU/media
	// framing fields beyond Type/Sequence/Timestamp are zero.
	Pkt zoom.Packet
}

// Plugin recognizes and decodes one application's RTC traffic.
type Plugin interface {
	// Name is the stable flag-level name ("zoom", "webrtc").
	Name() string
	// ID is the assigned wire identifier.
	ID() ID
	// Probe cheaply reports whether payload plausibly belongs to this
	// protocol. A true result is a claim: the registry stops at the
	// first plugin whose Probe accepts, whether or not Decode then
	// succeeds, so Probe must be strict enough not to steal another
	// protocol's packets.
	Probe(payload []byte) bool
	// DecodeInto fully parses payload into pkt, whatever pkt held, as the
	// normalized container of a packet of protocol ID(). Probe(payload)
	// is a precondition. On error pkt is the zero Packet. pkt's slices
	// alias payload.
	DecodeInto(payload []byte, pkt *zoom.Packet) error
	// Decode is DecodeInto by value, tagged with ID(): the zero MediaObs
	// on error.
	Decode(payload []byte) (MediaObs, error)
}

// zoomPlugin adapts zoom.ParsePacket. Probe mirrors ParsePacket's
// ModeAuto grammar exactly: a payload can decode iff its first byte is
// the SFU media marker or a known media-encapsulation type.
type zoomPlugin struct{}

func (zoomPlugin) Name() string { return "zoom" }
func (zoomPlugin) ID() ID       { return IDZoom }

func (zoomPlugin) Probe(payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	return payload[0] == zoom.SFUTypeMedia || zoom.MediaType(payload[0]).HeaderLen() > 0
}

func (zoomPlugin) DecodeInto(payload []byte, pkt *zoom.Packet) error {
	return pkt.Parse(payload, zoom.ModeAuto)
}

func (p zoomPlugin) Decode(payload []byte) (mo MediaObs, err error) {
	if err = p.DecodeInto(payload, &mo.Pkt); err == nil {
		mo.Proto = p.ID()
	}
	return mo, err
}

// webrtcPlugin adapts internal/webrtc, normalizing its packets into
// the zoom.Packet container: the inferred kind maps onto the Zoom
// media-type codes and the media-framing sequence/timestamp mirror the
// RTP header (WebRTC has no second sequence space).
type webrtcPlugin struct{}

func (webrtcPlugin) Name() string { return "webrtc" }
func (webrtcPlugin) ID() ID       { return IDWebRTC }

func (webrtcPlugin) Probe(payload []byte) bool { return webrtc.Probe(payload) }

func (webrtcPlugin) DecodeInto(payload []byte, pkt *zoom.Packet) error {
	*pkt = zoom.Packet{}
	wp, err := webrtc.Parse(payload)
	if err != nil {
		return err
	}
	if wp.IsRTCP {
		pkt.Media.Type = zoom.TypeRTCPSR
		if len(wp.RTCP.SenderReports) > 0 {
			pkt.Media.Timestamp = wp.RTCP.SenderReports[0].RTPTS
		}
		if len(wp.RTCP.SDES) > 0 {
			pkt.Media.Type = zoom.TypeRTCPSRSDES
		}
		pkt.RTCP = wp.RTCP
		return nil
	}
	mt := zoom.TypeVideo
	if wp.Kind == webrtc.KindAudio {
		mt = zoom.TypeAudio
	}
	pkt.Media = zoom.MediaEncap{
		Type:      mt,
		Sequence:  wp.RTP.SequenceNumber,
		Timestamp: wp.RTP.Timestamp,
	}
	pkt.RTP = wp.RTP
	return nil
}

func (p webrtcPlugin) Decode(payload []byte) (mo MediaObs, err error) {
	if err = p.DecodeInto(payload, &mo.Pkt); err == nil {
		mo.Proto = p.ID()
	}
	return mo, err
}

// canonical is the full plugin family in probe order.
var canonical = []Plugin{zoomPlugin{}, webrtcPlugin{}}

// DefaultSet returns the full plugin family in canonical probe order
// (what "-proto auto" selects). The returned slice is fresh; callers
// may keep it.
func DefaultSet() []Plugin {
	out := make([]Plugin, len(canonical))
	copy(out, canonical)
	return out
}

// Zoom returns the Zoom plugin alone (pre-refactor behavior).
func Zoom() Plugin { return zoomPlugin{} }

// WebRTC returns the standards RTP/SRTP plugin.
func WebRTC() Plugin { return webrtcPlugin{} }

// ByName resolves a plugin by its flag-level name.
func ByName(name string) (Plugin, error) {
	for _, p := range canonical {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("rtcproto: unknown protocol %q (have %s)", name, strings.Join(Names(), ", "))
}

// Names returns the flag-level plugin names in canonical order.
func Names() []string {
	out := make([]string, len(canonical))
	for i, p := range canonical {
		out[i] = p.Name()
	}
	return out
}

// NameOf returns the flag-level name for a wire ID (for report and
// metric labels).
func NameOf(proto uint8) string { return ID(proto).String() }

// ParseSet parses a -proto flag value: "auto" (or empty) selects the
// full family, a single name selects that plugin alone, and a
// comma-separated list selects a subset. The result is always in
// canonical probe order with duplicates removed, regardless of the
// spelling order, so classification never depends on how the list was
// written.
func ParseSet(spec string) ([]Plugin, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "auto" {
		return DefaultSet(), nil
	}
	want := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		if name == "auto" {
			return nil, fmt.Errorf("rtcproto: %q cannot combine auto with protocol names", spec)
		}
		if _, err := ByName(name); err != nil {
			return nil, err
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("rtcproto: empty protocol list %q", spec)
	}
	var out []Plugin
	for _, p := range canonical {
		if want[p.Name()] {
			out = append(out, p)
		}
	}
	return out, nil
}

// HasNonZoom reports whether the set contains any plugin besides Zoom.
// The capture filter uses it to decide whether generic (non-Zoom-net)
// STUN exchanges should arm media flows.
func HasNonZoom(set []Plugin) bool {
	for _, p := range set {
		if p.ID() != IDZoom {
			return true
		}
	}
	return false
}
