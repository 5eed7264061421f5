package zoomlens

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"zoomlens/internal/core"
	"zoomlens/internal/layers"
	"zoomlens/internal/sim"
)

// TestShardBalance holds the flow hash to an even spread: over every
// five-tuple of the campus fixture and over 10,000 seeded random ones
// (TCP and IPv6 among them), each of n = 2, 3, 4, 8 shards gets within
// ±10 % of its fair share of flows. The hash is the one the in-process
// front end and the cluster splitter share; Router.Route is it. (The
// byte-wise FNV-1a it replaced passes the same bound.)
func TestShardBalance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: replays the campus fixture")
	}
	var frames [][]byte
	cfg := smallCampus()
	opts := sim.DefaultOptions()
	opts.Seed = cfg.Seed
	opts.Start = cfg.Start
	w := sim.NewWorld(opts)
	var parser layers.Parser
	var pkt layers.Packet
	seen := make(map[layers.FiveTuple]bool)
	w.Monitor = func(_ time.Time, frame []byte) {
		if parser.Parse(frame, &pkt) != nil {
			return
		}
		if ft, ok := pkt.FiveTuple(); ok && !seen[ft] {
			seen[ft] = true
			frames = append(frames, append([]byte(nil), frame...))
		}
	}
	newCampusRunner(cfg, w)()

	rng := rand.New(rand.NewSource(29))
	var random [][]byte
	for i := 0; i < 10_000; i++ {
		port := func() uint16 { return uint16(1024 + rng.Intn(64511)) }
		switch i % 10 {
		case 0:
			var a, b [16]byte
			rng.Read(a[:])
			rng.Read(b[:])
			src, dst := netip.AddrPortFrom(netip.AddrFrom16(a), port()), netip.AddrPortFrom(netip.AddrFrom16(b), port())
			random = append(random, layers.EthernetIPv6UDP(src, dst, 64, []byte{0}))
		default:
			src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{byte(rng.Intn(223) + 1), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}), port())
			dst := netip.AddrPortFrom(netip.AddrFrom4([4]byte{byte(rng.Intn(223) + 1), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}), port())
			if i%10 < 4 {
				random = append(random, new(layers.Builder).BuildTCP(src, dst, 64, 1, 0, layers.TCPSyn, 1024, nil))
			} else {
				random = append(random, layers.EthernetIPv4UDP(src, dst, 64, []byte{0}))
			}
		}
	}

	for _, set := range []struct {
		name   string
		frames [][]byte
	}{{"campus", frames}, {"random", random}} {
		for _, n := range []int{2, 3, 4, 8} {
			// PreFiltered: every frame is hashed, not only the Zoom ones.
			r := core.NewRouter(core.Config{ZoomNetworks: DefaultZoomNetworks(), PreFiltered: true}, n)
			count := make([]int, n)
			for _, f := range set.frames {
				shard, keep := r.Route(opts.Start, f)
				if !keep {
					t.Fatalf("%s: the router dropped a frame", set.name)
				}
				count[shard]++
			}
			fair := float64(len(set.frames)) / float64(n)
			for shard, c := range count {
				if d := float64(c) - fair; d > fair/10 || d < -fair/10 {
					t.Errorf("%s, %d shards: shard %d holds %d of %d flows, fair share %.0f ±10 %%: %v", set.name, n, shard, c, len(set.frames), fair, count)
				}
			}
		}
	}
	if len(frames) < 10_000 {
		t.Fatalf("the campus fixture yielded %d five-tuples: too few to judge balance", len(frames))
	}
}
