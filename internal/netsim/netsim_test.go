package netsim

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func TestTransferTimeBottleneck(t *testing.T) {
	// 100 MB over a 100 Mbps bottleneck = 8 s.
	got, err := transferTime(100_000_000, 10e9, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	want := 8 * time.Second
	if got < want-time.Millisecond || got > want+time.Millisecond {
		t.Errorf("transferTime = %v, want %v", got, want)
	}
	// Direction of the bottleneck must not matter.
	rev, err := transferTime(100_000_000, 100e6, 10e9)
	if err != nil {
		t.Fatal(err)
	}
	if rev != got {
		t.Errorf("asymmetric bottleneck: %v vs %v", rev, got)
	}
}

func TestTransferTimeEdge(t *testing.T) {
	if _, err := transferTime(1, 0, 1); !errors.Is(err, ErrBadLink) {
		t.Errorf("err = %v", err)
	}
	got, err := transferTime(0, 1e6, 1e6)
	if err != nil || got != 0 {
		t.Errorf("zero bytes: %v, %v", got, err)
	}
}

func TestFanOutSmallPoolWorkerBound(t *testing.T) {
	// 10 workers × 90.7 MB through a 10 Gbps manager uplink = 0.73 s
	// aggregate, but each worker's 100 Mbps downlink needs 7.26 s — the
	// worker link governs.
	got, err := FanOutTime(10, 90_700_000, ManagerLink, WorkerLink)
	if err != nil {
		t.Fatal(err)
	}
	want := time.Duration(90_700_000 * 8 / 100e6 * float64(time.Second))
	if got < want-10*time.Millisecond || got > want+10*time.Millisecond {
		t.Errorf("FanOut = %v, want ≈ %v", got, want)
	}
}

func TestFanOutLargePoolManagerBound(t *testing.T) {
	// 1000 workers × 90.7 MB = 90.7 GB through 10 Gbps = 72.6 s aggregate,
	// exceeding the per-worker 7.26 s — the manager uplink governs.
	got, err := FanOutTime(1000, 90_700_000, ManagerLink, WorkerLink)
	if err != nil {
		t.Fatal(err)
	}
	aggregate := time.Duration(1000 * 90_700_000 * 8 / 10e9 * float64(time.Second))
	if got < aggregate-100*time.Millisecond || got > aggregate+100*time.Millisecond {
		t.Errorf("FanOut = %v, want ≈ %v", got, aggregate)
	}
}

func TestFanInMirrorsFanOut(t *testing.T) {
	out, err := FanOutTime(10, 1_000_000, ManagerLink, WorkerLink)
	if err != nil {
		t.Fatal(err)
	}
	in, err := FanInTime(10, 1_000_000, ManagerLink, WorkerLink)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("symmetric links must give equal times: %v vs %v", out, in)
	}
}

func TestFanEdgeCases(t *testing.T) {
	if _, err := FanOutTime(1, 1, LinkSpec{}, WorkerLink); !errors.Is(err, ErrBadLink) {
		t.Errorf("err = %v", err)
	}
	if _, err := FanInTime(1, 1, ManagerLink, LinkSpec{}); !errors.Is(err, ErrBadLink) {
		t.Errorf("err = %v", err)
	}
	if got, err := FanOutTime(0, 100, ManagerLink, WorkerLink); err != nil || got != 0 {
		t.Errorf("n=0: %v, %v", got, err)
	}
}

// TestBusSendRecv: a message's kind, payload and correlation number cross
// the hub intact, addressed from the sender's registered name to its
// destination.
func TestBusSendRecv(t *testing.T) {
	hub := startHub(t)
	a := dial(t, hub, "manager")
	b := dial(t, hub, "worker-1")
	if err := a.SendSeq("worker-1", "model", 7, []byte("weights")); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != "manager" || msg.To != "worker-1" || msg.Kind != "model" || msg.Seq != 7 || string(msg.Payload) != "weights" {
		t.Errorf("msg = %+v", msg)
	}
}

// TestBusUnknownAndDuplicate: a message to a name nobody registered is
// dropped and accounted, and a second registration of a taken name is
// refused before DialHub returns.
func TestBusUnknownAndDuplicate(t *testing.T) {
	hub := startHub(t)
	reg := observe(hub)
	a := dial(t, hub, "a")
	probe := dial(t, hub, "probe")
	if err := a.Send("ghost", "x", nil); err != nil {
		t.Fatal(err)
	}
	routedBarrier(t, a, probe)
	if msgs, bytes := dropped(reg); msgs != 1 || bytes != 64 {
		t.Errorf("Dropped = %d msgs, %d bytes; want 1 and 64", msgs, bytes)
	}
	if dup, err := DialHub(hub.Addr(), "a"); err == nil {
		_ = dup.Close()
		t.Error("duplicate registration accepted")
	}
}

// TestBusClose: closing the hub fails a pending Recv, refuses later
// registrations and may be repeated; an endpoint closed on its own side fails
// its sends with net.ErrClosed.
func TestBusClose(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a := dial(t, hub, "a")
	b := dial(t, hub, "b")
	recvErr := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		recvErr <- err
	}()
	hub.Close()
	if err := <-recvErr; err == nil {
		t.Error("Recv after close delivered a message")
	}
	if late, err := DialHub(hub.Addr(), "c"); err == nil {
		_ = late.Close()
		t.Error("Register after close succeeded")
	}
	hub.Close() // double close must not panic
	_ = a.Close()
	if err := a.Send("b", "x", nil); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Send after close = %v, want net.ErrClosed", err)
	}
}

// flood sends dst n frames of kind "flood" from sender, Seq 0 to n−1, into
// dst's shared queue, which nobody reads. It sends them in batches and waits
// for dst's pump to queue each one, so the hub's own queue for dst never
// overflows; frames past a full shared queue reach the pump with nothing to
// wait for.
func flood(t *testing.T, sender, dst *TCPEndpoint, n int) {
	t.Helper()
	for sent := 0; sent < n; {
		for end := min(sent+128, n); sent < end; sent++ {
			if err := sender.SendSeq(dst.name, "flood", uint64(sent), nil); err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(10 * time.Second); len(dst.inbox.ch) < min(sent, queueDepth); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the shared queue holds %d of %d frames sent", len(dst.inbox.ch), sent)
			}
		}
	}
}

// TestBusTryRecv: a claimed peer's frames reach only its queue and every
// other peer's reach Recv, a peer is claimed once, and neither queue waits on
// the other: the pump drops what a full queue cannot take and keeps
// delivering to the rest.
func TestBusTryRecv(t *testing.T) {
	hub := startHub(t)
	a := dial(t, hub, "a")
	c := dial(t, hub, "c")
	probe := dial(t, hub, "probe")
	b := dial(t, hub, "b")
	fromA, err := b.Claim("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Claim("a"); err == nil {
		t.Error("a second claim of one peer was accepted")
	}

	// a floods its claimed queue past its depth. The hub writes a's frames
	// to b ahead of c's, so c's frame reaching Recv shows the pump got past
	// the full queue.
	for i := 0; i < claimDepth+8; i++ {
		if err := a.SendSeq("b", "flood", uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	routedBarrier(t, a, probe)
	if err := c.Send("b", "x", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if msg, err := b.Recv(); err != nil || msg.From != "c" || msg.Kind != "x" {
		t.Fatalf("Recv = %+v, %v; want c's frame", msg, err)
	}
	for i := 0; i < claimDepth; i++ {
		msg, err := fromA.Recv()
		if err != nil || msg.From != "a" || msg.Seq != uint64(i) {
			t.Fatalf("claimed frame %d = %+v, %v", i, msg, err)
		}
	}
	if n := len(fromA.ch); n != 0 {
		t.Errorf("%d frames past a full claimed queue were kept", n)
	}

	// Now c fills the shared queue past its depth: a's next frame, routed
	// behind c's, still reaches its claimed queue.
	flood(t, c, b, queueDepth+8)
	routedBarrier(t, c, probe)
	if err := a.SendSeq("b", "reply", 99, nil); err != nil {
		t.Fatal(err)
	}
	if msg, err := fromA.Recv(); err != nil || msg.Seq != 99 {
		t.Fatalf("claimed Recv behind a full shared queue = %+v, %v", msg, err)
	}
	for i := 0; i < queueDepth; i++ {
		if msg, err := b.Recv(); err != nil || msg.From != "c" || msg.Seq != uint64(i) {
			t.Fatalf("shared frame %d = %+v, %v", i, msg, err)
		}
	}
	if n := len(b.inbox.ch); n != 0 {
		t.Errorf("%d frames past a full shared queue were kept", n)
	}
}

// TestEndpointCloseEndsRecv: closing an endpoint whose shared queue is full
// and frames past it arrived lets Recv drain the queued frames and then
// fail, and fails a claimed queue's Recv too, instead of leaving either
// blocked.
func TestEndpointCloseEndsRecv(t *testing.T) {
	hub := startHub(t)
	a := dial(t, hub, "a")
	c := dial(t, hub, "c")
	probe := dial(t, hub, "probe")
	b := dial(t, hub, "b")
	fromC, err := b.Claim("c")
	if err != nil {
		t.Fatal(err)
	}
	flood(t, a, b, queueDepth+8)
	// c's frame, routed behind all of a's, reaching its claimed queue shows
	// the pump has read every frame past the full shared queue.
	routedBarrier(t, a, probe)
	if err := c.Send("b", "x", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fromC.Recv(); err != nil {
		t.Fatal(err)
	}
	_ = b.Close()

	drained := make(chan int, 1)
	go func() {
		n := 0
		for ; ; n++ {
			if _, err := b.Recv(); err != nil {
				break
			}
		}
		if _, err := fromC.Recv(); err == nil {
			n = -1
		}
		drained <- n
	}()
	select {
	case n := <-drained:
		if n != queueDepth {
			t.Errorf("Recv drained %d frames before failing, want %d (-1: the claimed queue delivered after close)", n, queueDepth)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv blocked after Close")
	}
}

func TestMeterAccounting(t *testing.T) {
	hub := startHub(t)
	a := dial(t, hub, "a")
	_ = dial(t, hub, "b")
	payload := make([]byte, 1000)
	if err := a.Send("b", "weights", payload); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", "digest", payload[:100]); err != nil {
		t.Fatal(err)
	}
	// Each dial meters its register frame and the hub's ack, 64 bytes apiece.
	const handshakes = 4 * 64
	m := hub.Meter()
	if got := waitTotal(m, handshakes+1064+164, 5*time.Second); got != handshakes+1064+164 {
		t.Errorf("Total = %d", got)
	}
	if got := m.Messages(); got != 4+2 {
		t.Errorf("Messages = %d, want the 4 handshake frames and 2 sends", got)
	}
	byKind := m.ByKind()
	if byKind["weights"] != 1064 || byKind["digest"] != 164 {
		t.Errorf("ByKind = %v", byKind)
	}
}

func TestMeterConcurrentSafety(t *testing.T) {
	m := NewMeter()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Record("k", 10)
			}
		}()
	}
	wg.Wait()
	if m.Total() != 8000 {
		t.Errorf("Total = %d, want 8000", m.Total())
	}
}

func TestMeterIgnoresNonPositive(t *testing.T) {
	m := NewMeter()
	m.Record("k", 0)
	m.Record("k", -5)
	if m.Total() != 0 {
		t.Errorf("Total = %d", m.Total())
	}
}

// TestMeterWaitTotal: a test waiting on delivery polls Total, which sees
// transfers recorded on other goroutines, and a wait that never reaches its
// threshold returns the total it last read.
func TestMeterWaitTotal(t *testing.T) {
	m := NewMeter()
	m.Record("k", 100)
	if got := waitTotal(m, 100, 5*time.Second); got != 100 {
		t.Errorf("waitTotal = %d, want 100", got)
	}
	go func() {
		m.Record("k", 50)
		m.Record("k", 100) // crosses 250
	}()
	if got := waitTotal(m, 250, 5*time.Second); got != 250 {
		t.Errorf("waitTotal = %d, want 250", got)
	}
	if got := waitTotal(m, 1<<40, 10*time.Millisecond); got != 250 {
		t.Errorf("unreached waitTotal = %d, want 250", got)
	}
}
