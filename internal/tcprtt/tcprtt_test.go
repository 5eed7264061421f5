package tcprtt

import (
	"testing"
	"time"

	"zoomlens/internal/layers"
)

var t0 = time.Date(2022, 5, 5, 9, 0, 0, 0, time.UTC)

// exchange simulates, at the monitor, a client whose one-way delay to the
// monitor is dClient and a server at dServer. Client sends data at seq;
// server ACKs. The monitor sees the data at send+dClient... for
// simplicity we directly schedule what the monitor observes.
func TestToServerRTT(t *testing.T) {
	tr := NewTracker()
	// Client data passes the monitor at t0; server ACK passes at t0+30ms.
	data := &layers.TCP{Seq: 1000, Ack: 500, Flags: layers.TCPAck | layers.TCPPsh}
	tr.Observe(t0, true, data, 200)
	ack := &layers.TCP{Seq: 500, Ack: 1200, Flags: layers.TCPAck}
	tr.Observe(t0.Add(30*time.Millisecond), false, ack, 0)

	if tr.Samples.Len() != 1 {
		t.Fatalf("samples = %d, want 1", tr.Samples.Len())
	}
	s := tr.Samples.At(0)
	if s.RTT != 30*time.Millisecond {
		t.Errorf("rtt = %v, want 30ms", s.RTT)
	}
	if s.Side != ToServer {
		t.Errorf("side = %v, want to-server", s.Side)
	}
}

func TestToClientRTT(t *testing.T) {
	tr := NewTracker()
	// Server data, client ACK 8 ms later: monitor↔client leg.
	data := &layers.TCP{Seq: 9000, Ack: 100, Flags: layers.TCPAck}
	tr.Observe(t0, false, data, 50)
	ack := &layers.TCP{Seq: 100, Ack: 9050, Flags: layers.TCPAck}
	tr.Observe(t0.Add(8*time.Millisecond), true, ack, 0)
	if tr.Samples.Len() != 1 || tr.Samples.At(0).Side != ToClient || tr.Samples.At(0).RTT != 8*time.Millisecond {
		t.Fatalf("samples = %+v", tr.Samples)
	}
}

func TestRetransmissionIgnoredKarn(t *testing.T) {
	tr := NewTracker()
	data := &layers.TCP{Seq: 1000, Ack: 0, Flags: layers.TCPAck}
	tr.Observe(t0, true, data, 100)
	// Retransmission of the same segment 200 ms later.
	tr.Observe(t0.Add(200*time.Millisecond), true, data, 100)
	// ACK arrives: ambiguous, must not produce a sample.
	ack := &layers.TCP{Seq: 0, Ack: 1100, Flags: layers.TCPAck}
	tr.Observe(t0.Add(230*time.Millisecond), false, ack, 0)
	if tr.Samples.Len() != 0 {
		t.Fatalf("samples = %+v, want none (Karn)", tr.Samples)
	}
	// A later fresh segment samples normally again.
	data2 := &layers.TCP{Seq: 1100, Ack: 0, Flags: layers.TCPAck}
	tr.Observe(t0.Add(300*time.Millisecond), true, data2, 100)
	ack2 := &layers.TCP{Seq: 0, Ack: 1200, Flags: layers.TCPAck}
	tr.Observe(t0.Add(325*time.Millisecond), false, ack2, 0)
	if tr.Samples.Len() != 1 || tr.Samples.At(0).RTT != 25*time.Millisecond {
		t.Fatalf("samples = %+v", tr.Samples)
	}
}

func TestCumulativeAckClearsEarlierSegmentsWithoutSampling(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < 3; i++ {
		d := &layers.TCP{Seq: uint32(1000 + i*100), Flags: layers.TCPAck}
		tr.Observe(t0.Add(time.Duration(i)*time.Millisecond), true, d, 100)
	}
	// One cumulative ACK for all three segments.
	ack := &layers.TCP{Ack: 1300, Flags: layers.TCPAck}
	tr.Observe(t0.Add(40*time.Millisecond), false, ack, 0)
	if tr.Samples.Len() != 1 {
		t.Fatalf("samples = %d, want 1 (only the exactly-matching segment)", tr.Samples.Len())
	}
	// The matched segment was sent at t0+2ms.
	if tr.Samples.At(0).RTT != 38*time.Millisecond {
		t.Errorf("rtt = %v", tr.Samples.At(0).RTT)
	}
	// Nothing outstanding now: a duplicate ACK produces nothing.
	tr.Observe(t0.Add(50*time.Millisecond), false, ack, 0)
	if tr.Samples.Len() != 1 {
		t.Errorf("duplicate ACK produced a sample")
	}
}

func TestSynCountsAsOneByte(t *testing.T) {
	tr := NewTracker()
	syn := &layers.TCP{Seq: 7000, Flags: layers.TCPSyn}
	tr.Observe(t0, true, syn, 0)
	synAck := &layers.TCP{Seq: 3000, Ack: 7001, Flags: layers.TCPSyn | layers.TCPAck}
	tr.Observe(t0.Add(12*time.Millisecond), false, synAck, 0)
	if tr.Samples.Len() != 1 || tr.Samples.At(0).RTT != 12*time.Millisecond {
		t.Fatalf("samples = %+v", tr.Samples)
	}
}

func TestSplitDecomposition(t *testing.T) {
	tr := NewTracker()
	// Repeated exchanges: server leg 30 ms, client leg 5 ms.
	seqC, seqS := uint32(1), uint32(1)
	at := t0
	for i := 0; i < 20; i++ {
		d := &layers.TCP{Seq: seqC, Flags: layers.TCPAck}
		tr.Observe(at, true, d, 100)
		tr.Observe(at.Add(30*time.Millisecond), false, &layers.TCP{Seq: seqS, Ack: seqC + 100, Flags: layers.TCPAck}, 100)
		tr.Observe(at.Add(35*time.Millisecond), true, &layers.TCP{Seq: seqC + 100, Ack: seqS + 100, Flags: layers.TCPAck}, 0)
		seqC += 100
		seqS += 100
		at = at.Add(time.Second)
	}
	sp := tr.Split()
	if sp.ToServerSamples != 20 || sp.ToClientSamples != 20 {
		t.Fatalf("split counts = %+v", sp)
	}
	if sp.ToServerMean != 30*time.Millisecond {
		t.Errorf("server mean = %v", sp.ToServerMean)
	}
	if sp.ToClientMean != 5*time.Millisecond {
		t.Errorf("client mean = %v", sp.ToClientMean)
	}
}

func TestPureAcksProduceNoOutstanding(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < 100; i++ {
		a := &layers.TCP{Seq: 1, Ack: uint32(i), Flags: layers.TCPAck}
		tr.Observe(t0.Add(time.Duration(i)*time.Millisecond), true, a, 0)
	}
	if len(tr.clientToServer.outstanding) != 0 {
		t.Errorf("outstanding = %d, want 0", len(tr.clientToServer.outstanding))
	}
}

func BenchmarkObserve(b *testing.B) {
	tr := NewTracker()
	data := &layers.TCP{Seq: 0, Flags: layers.TCPAck}
	ack := &layers.TCP{Flags: layers.TCPAck}
	at := t0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data.Seq = uint32(i * 100)
		tr.Observe(at, true, data, 100)
		ack.Ack = uint32(i*100 + 100)
		tr.Observe(at.Add(time.Millisecond), false, ack, 0)
		at = at.Add(2 * time.Millisecond)
	}
}
