package netsim

import (
	"errors"
	"sync"
	"testing"
	"time"

	"rpol/internal/obs"
)

func startHub(t *testing.T) *TCPHub {
	t.Helper()
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)
	return hub
}

// observe attaches a fresh registry to hub's meter and returns it, so a test
// reads the hub's drop and fault accounting from its net_tcp_* counters.
func observe(hub *TCPHub) *obs.Registry {
	reg := obs.NewRegistry()
	hub.Observe(reg)
	return reg
}

// dropped returns the dropped messages and bytes reg's counters hold.
func dropped(reg *obs.Registry) (msgs, bytes int64) {
	return reg.Counter("net_tcp_dropped_total").Value(), reg.Counter("net_tcp_dropped_bytes_total").Value()
}

// injected returns the fault-plan drops and delays reg's counters hold.
func injected(reg *obs.Registry) (drops, delays int64) {
	return reg.Counter("net_tcp_injected_drops_total").Value(), reg.Counter("net_tcp_injected_delays_total").Value()
}

// waitTotal polls m's delivered byte total until it reaches want or the
// timeout passes, and returns the last reading: the hub meters on its relay
// goroutines, after the sender's call has returned.
func waitTotal(m *Meter, want int64, timeout time.Duration) int64 {
	deadline := time.Now().Add(timeout)
	for {
		got := m.Total()
		if got >= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

func dial(t *testing.T, hub *TCPHub, name string) *TCPEndpoint {
	t.Helper()
	ep, err := DialHub(hub.Addr(), name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	return ep
}

func TestTCPSendRecv(t *testing.T) {
	hub := startHub(t)
	a := dial(t, hub, "manager")
	b := dial(t, hub, "worker-1")

	if err := a.Send("worker-1", "task", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != "manager" || msg.Kind != "task" || string(msg.Payload) != "payload" {
		t.Errorf("msg = %+v", msg)
	}
	// Reply path.
	if err := b.Send("manager", "result", []byte("done")); err != nil {
		t.Fatal(err)
	}
	reply, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.From != "worker-1" || string(reply.Payload) != "done" {
		t.Errorf("reply = %+v", reply)
	}
}

func TestTCPSenderIsAuthenticated(t *testing.T) {
	// A client cannot spoof its From field: the hub overwrites it with the
	// registered name.
	hub := startHub(t)
	mallory := dial(t, hub, "mallory")
	victim := dial(t, hub, "victim")

	if err := mallory.writeMsg(Message{From: "manager", To: "victim", Kind: "task"}); err != nil {
		t.Fatal(err)
	}
	msg, err := victim.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != "mallory" {
		t.Errorf("spoofed From accepted: %q", msg.From)
	}
}

func TestTCPMeter(t *testing.T) {
	hub := startHub(t)
	a := dial(t, hub, "a")
	b := dial(t, hub, "b")

	payload := make([]byte, 500)
	if err := a.Send("b", "weights", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	// Each dial meters its two-frame registration handshake (register +
	// registered ack, 64 bytes apiece), on top of the 564-byte transfer.
	const want = 2*2*64 + 564
	if got := waitTotal(hub.Meter(), want, 5*time.Second); got != want {
		t.Errorf("metered %d bytes, want %d", got, want)
	}
	if got := hub.Meter().ByKind()["weights"]; got != 564 {
		t.Errorf("metered %d weights bytes, want 564", got)
	}
}

func TestTCPUnknownDestinationDropped(t *testing.T) {
	hub := startHub(t)
	a := dial(t, hub, "a")
	b := dial(t, hub, "b")
	if err := a.Send("ghost", "x", nil); err != nil {
		t.Fatal(err)
	}
	// The message to the unknown destination is dropped; a follow-up to a
	// real destination still arrives.
	if err := a.Send("b", "y", nil); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != "y" {
		t.Errorf("got %q", msg.Kind)
	}
}

func TestTCPDuplicateNameRejected(t *testing.T) {
	hub := startHub(t)
	_ = dial(t, hub, "dup")
	second, err := DialHub(hub.Addr(), "dup")
	if err != nil {
		// Rejected at dial time is fine too.
		return
	}
	defer func() { _ = second.Close() }()
	// The hub closes the duplicate connection; Recv must fail promptly.
	done := make(chan error, 1)
	go func() {
		_, err := second.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("duplicate registration delivered a message")
		}
	case <-time.After(2 * time.Second):
		t.Error("duplicate connection not closed")
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	hub := startHub(t)
	const n = 8
	manager := dial(t, hub, "manager")

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		ep := dial(t, hub, name)
		wg.Add(1)
		go func(ep *TCPEndpoint) {
			defer wg.Done()
			msg, err := ep.Recv()
			if err != nil {
				t.Errorf("%s recv: %v", ep.name, err)
				return
			}
			if err := ep.Send("manager", "ack", msg.Payload); err != nil {
				t.Errorf("%s send: %v", ep.name, err)
			}
		}(ep)
	}
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		if err := manager.Send(name, "ping", []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	acks := map[string]bool{}
	for i := 0; i < n; i++ {
		msg, err := manager.Recv()
		if err != nil {
			t.Fatal(err)
		}
		acks[string(msg.Payload)] = true
	}
	wg.Wait()
	if len(acks) != n {
		t.Errorf("acks = %d, want %d", len(acks), n)
	}
}

func TestTCPDialValidation(t *testing.T) {
	hub := startHub(t)
	if _, err := DialHub(hub.Addr(), ""); err == nil {
		t.Error("want error for empty name")
	}
	if _, err := DialHub("127.0.0.1:1", "x"); err == nil {
		t.Error("want error for refused connection")
	}
}

func TestTCPCloseUnblocksClients(t *testing.T) {
	hub := startHub(t)
	ep := dial(t, hub, "lonely")
	done := make(chan error, 1)
	go func() {
		_, err := ep.Recv()
		done <- err
	}()
	hub.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Recv returned a message after close")
		}
	case <-time.After(2 * time.Second):
		t.Error("Recv not unblocked by hub close")
	}
}

func TestFrameTooLargeRejected(t *testing.T) {
	// A corrupt length prefix must not cause a giant allocation.
	hub := startHub(t)
	ep := dial(t, hub, "x")
	// Write a bogus frame directly.
	e := ep
	e.writeMu.Lock()
	_, err := e.conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	e.writeMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// The hub drops the client; its Recv fails.
	done := make(chan error, 1)
	go func() {
		_, err := ep.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("oversized frame tolerated")
		}
	case <-time.After(2 * time.Second):
		t.Error("client not dropped after oversized frame")
	}
	if errors.Is(nil, ErrFrameTooLarge) {
		t.Error("sanity")
	}
}
