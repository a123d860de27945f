package netsim

import (
	"testing"

	"rpol/internal/obs"
)

func TestMeterDropAccounting(t *testing.T) {
	m := NewMeter()
	reg := obs.NewRegistry()
	m.Attach(reg)
	m.Record("k", 100)
	m.RecordDrop(50)
	m.RecordDrop(-1) // clamped to 0 bytes, still one drop
	if got := m.Messages(); got != 1 {
		t.Errorf("Messages = %d, want 1", got)
	}
	if msgs, bytes := dropped(reg); msgs != 2 || bytes != 50 {
		t.Errorf("dropped %d msgs, %d bytes; want 2 and 50", msgs, bytes)
	}
	// Dropped traffic must not pollute the delivered totals.
	if m.Total() != 100 || m.ByKind()["k"] != 100 {
		t.Errorf("Total = %d, ByKind = %v; want 100", m.Total(), m.ByKind())
	}
}

func TestMeterAttachMirrorsToRegistry(t *testing.T) {
	m := NewMeter()
	reg := obs.NewRegistry()
	m.Attach(reg)
	m.Attach(nil) // nil registry must not clear the counters
	m.Attach(reg)
	m.Record("k", 100)
	m.Record("k", 28)
	m.RecordDrop(64)
	m.RecordInjectedDrop(8)
	m.RecordInjectedDelay()
	m.RecordInjectedDelay()
	s := reg.Snapshot()
	if got := s.Counters["net_tcp_bytes_total"]; got != 128 {
		t.Errorf("net_tcp_bytes_total = %d", got)
	}
	if got := s.Counters["net_tcp_messages_total"]; got != 2 {
		t.Errorf("net_tcp_messages_total = %d", got)
	}
	// An injected drop is also a drop: nothing vanishes silently.
	if got := s.Counters["net_tcp_dropped_total"]; got != 2 {
		t.Errorf("net_tcp_dropped_total = %d", got)
	}
	if got := s.Counters["net_tcp_dropped_bytes_total"]; got != 72 {
		t.Errorf("net_tcp_dropped_bytes_total = %d", got)
	}
	if got := s.Counters["net_tcp_injected_drops_total"]; got != 1 {
		t.Errorf("net_tcp_injected_drops_total = %d", got)
	}
	if got := s.Counters["net_tcp_injected_delays_total"]; got != 2 {
		t.Errorf("net_tcp_injected_delays_total = %d", got)
	}
}

// TestBusFullInboxRecordsDrop: once a destination's queue holds queueDepth
// frames, route drops the next one and the meter accounts exactly that drop.
func TestBusFullInboxRecordsDrop(t *testing.T) {
	h := &TCPHub{meter: NewMeter(), clients: map[string]*hubClient{
		"sink": {name: "sink", out: make(chan hubFrame, queueDepth)},
	}}
	reg := obs.NewRegistry()
	h.meter.Attach(reg)
	frame := hubFrame{msg: Message{From: "a", To: "sink", Kind: "k"}}
	for i := 0; i < queueDepth; i++ {
		if !h.route(frame) {
			t.Fatalf("frame %d dropped before the queue filled", i)
		}
	}
	if h.route(frame) {
		t.Fatal("overflow frame was queued")
	}
	if msgs, bytes := dropped(reg); msgs != 1 || bytes != 64 {
		t.Errorf("Dropped = %d msgs, %d bytes; want 1 and 64", msgs, bytes)
	}
	if got := h.meter.Messages(); got != queueDepth {
		t.Errorf("Messages = %d, want %d", got, queueDepth)
	}
}

func TestTCPDropAccounting(t *testing.T) {
	hub := startHub(t)
	reg := observe(hub)
	a := dial(t, hub, "a")
	b := dial(t, hub, "b")
	if err := a.Send("ghost", "x", nil); err != nil {
		t.Fatal(err)
	}
	// Synchronize on a routed follow-up: once b receives it, the ghost
	// frame has been through route() too.
	if err := a.Send("b", "y", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if msgs, bytes := dropped(reg); msgs != 1 || bytes != 64 {
		t.Errorf("Dropped = %d msgs, %d bytes; want 1 and 64", msgs, bytes)
	}
}
