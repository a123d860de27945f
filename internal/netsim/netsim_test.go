package netsim

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestTransferTimeBottleneck(t *testing.T) {
	// 100 MB over a 100 Mbps bottleneck = 8 s.
	got, err := TransferTime(100_000_000, 10e9, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	want := 8 * time.Second
	if got < want-time.Millisecond || got > want+time.Millisecond {
		t.Errorf("TransferTime = %v, want %v", got, want)
	}
	// Direction of the bottleneck must not matter.
	rev, err := TransferTime(100_000_000, 100e6, 10e9)
	if err != nil {
		t.Fatal(err)
	}
	if rev != got {
		t.Errorf("asymmetric bottleneck: %v vs %v", rev, got)
	}
}

func TestTransferTimeEdge(t *testing.T) {
	if _, err := TransferTime(1, 0, 1); !errors.Is(err, ErrBadLink) {
		t.Errorf("err = %v", err)
	}
	got, err := TransferTime(0, 1e6, 1e6)
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
	a := dial(t, hub, "a")
	probe := dial(t, hub, "probe")
	if err := a.Send("ghost", "x", nil); err != nil {
		t.Fatal(err)
	}
	routedBarrier(t, a, probe)
	if msgs, bytes := hub.Meter().Dropped(); msgs != 1 || bytes != 64 {
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

// TestBusTryRecv: TryRecv never blocks — false on an empty inbox, the
// message once the endpoint's pump has queued it.
func TestBusTryRecv(t *testing.T) {
	hub := startHub(t)
	a := dial(t, hub, "a")
	b := dial(t, hub, "b")
	if _, ok := b.TryRecv(); ok {
		t.Error("TryRecv on empty inbox must return false")
	}
	if err := a.Send("b", "x", []byte{1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		if msg, ok := b.TryRecv(); ok {
			if msg.Kind != "x" || len(msg.Payload) != 1 {
				t.Errorf("TryRecv = %+v", msg)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("the sent message never reached TryRecv")
		default:
			runtime.Gosched()
		}
	}
	if msg, ok := b.TryRecv(); ok {
		t.Errorf("TryRecv on a drained inbox = %+v", msg)
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
	if got := m.WaitTotal(handshakes+1064+164, 2*time.Second); got != handshakes+1064+164 {
		t.Errorf("Total = %d", got)
	}
	if got := m.SentBy("a"); got != 64+1064+164 {
		t.Errorf("SentBy(a) = %d", got)
	}
	if got := m.ReceivedBy("b"); got != 64+1064+164 {
		t.Errorf("ReceivedBy(b) = %d", got)
	}
	byKind := m.ByKind()
	if byKind["weights"] != 1064 || byKind["digest"] != 164 {
		t.Errorf("ByKind = %v", byKind)
	}
	m.Reset()
	if m.Total() != 0 || m.SentBy("a") != 0 {
		t.Error("Reset did not clear counters")
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
				m.Record("x", "y", "k", 10)
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
	m.Record("a", "b", "k", 0)
	m.Record("a", "b", "k", -5)
	if m.Total() != 0 {
		t.Errorf("Total = %d", m.Total())
	}
}

func TestMeterWaitTotal(t *testing.T) {
	m := NewMeter()
	m.Record("a", "b", "k", 100)
	// Already satisfied: returns immediately without arming the watch.
	if got := m.WaitTotal(100, time.Second); got != 100 {
		t.Errorf("WaitTotal = %d, want 100", got)
	}

	// A parked waiter wakes the instant the threshold lands.
	done := make(chan int64, 1)
	go func() { done <- m.WaitTotal(250, 5*time.Second) }()
	m.Record("a", "b", "k", 50)  // wakes, re-parks: still below threshold
	m.Record("a", "b", "k", 100) // crosses 250
	select {
	case got := <-done:
		if got < 250 {
			t.Errorf("WaitTotal woke at %d, want >= 250", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitTotal never woke")
	}

	// Timeout path: returns the current (insufficient) total.
	if got := m.WaitTotal(1<<40, 10*time.Millisecond); got != 250 {
		t.Errorf("timed-out WaitTotal = %d, want 250", got)
	}
}
