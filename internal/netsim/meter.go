package netsim

import (
	"sync"
	"time"

	"rpol/internal/obs"
)

// Meter accumulates transferred bytes and message counts, grouped by
// endpoint and message kind, and tallies dropped traffic so no send path
// loses its size accounting silently. It is safe for concurrent use.
type Meter struct {
	mu           sync.Mutex
	sent         map[string]int64 // bytes by sender
	received     map[string]int64 // bytes by receiver
	byKind       map[string]int64
	total        int64
	messages     int64
	dropped      int64
	droppedBytes int64

	// Injected-fault tallies: losses and delays a FaultPlan caused, kept
	// separate from organic drops so a soak run can tell "the plan fired"
	// apart from "a queue overflowed".
	injectedDrops  int64
	injectedDelays int64

	// watch is closed (and replaced) on every recorded transfer while a
	// WaitTotal caller is parked; nil when nobody is waiting, so the hot
	// path pays one nil check.
	watch chan struct{}

	// Mirrored obs counters; nil until Attach.
	cBytes, cMsgs, cDropped, cDroppedBytes *obs.Counter
	cInjDrops, cInjDelays                  *obs.Counter
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{
		sent:     make(map[string]int64),
		received: make(map[string]int64),
		byKind:   make(map[string]int64),
	}
}

// Attach mirrors the meter's totals into reg: net_tcp_bytes_total,
// net_tcp_messages_total, net_tcp_dropped_total, net_tcp_dropped_bytes_total,
// net_tcp_injected_drops_total and net_tcp_injected_delays_total. Traffic
// recorded before Attach is not backfilled.
func (m *Meter) Attach(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cBytes = reg.Counter("net_tcp_bytes_total")
	m.cMsgs = reg.Counter("net_tcp_messages_total")
	m.cDropped = reg.Counter("net_tcp_dropped_total")
	m.cDroppedBytes = reg.Counter("net_tcp_dropped_bytes_total")
	m.cInjDrops = reg.Counter("net_tcp_injected_drops_total")
	m.cInjDelays = reg.Counter("net_tcp_injected_delays_total")
}

// Record accounts one delivered transfer.
func (m *Meter) Record(from, to, kind string, bytes int64) {
	if bytes < 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sent[from] += bytes
	m.received[to] += bytes
	m.byKind[kind] += bytes
	m.total += bytes
	m.messages++
	m.signalLocked()
	m.cBytes.Add(bytes)
	m.cMsgs.Inc()
}

// signalLocked wakes WaitTotal callers; m.mu must be held.
func (m *Meter) signalLocked() {
	if m.watch != nil {
		close(m.watch)
		m.watch = nil
	}
}

// RecordDrop accounts one message that could not be delivered (unknown
// destination, full queue), so dropped traffic shows up in the accounting
// instead of vanishing.
func (m *Meter) RecordDrop(from, to, kind string, bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dropped++
	m.droppedBytes += bytes
	m.signalLocked()
	m.cDropped.Inc()
	m.cDroppedBytes.Add(bytes)
}

// RecordInjectedDrop accounts one message a FaultPlan lost in transit. The
// bytes flow into the same dropped accounting as organic drops (nothing
// vanishes silently), plus the injected tally.
func (m *Meter) RecordInjectedDrop(from, to, kind string, bytes int64) {
	m.RecordDrop(from, to, kind, bytes)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.injectedDrops++
	m.cInjDrops.Inc()
}

// RecordInjectedDelay accounts one delivery a FaultPlan delayed in transit.
func (m *Meter) RecordInjectedDelay() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.injectedDelays++
	m.cInjDelays.Inc()
}

// Injected returns the number of plan-injected drops and delays.
func (m *Meter) Injected() (drops, delays int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.injectedDrops, m.injectedDelays
}

// Total returns all bytes transferred.
func (m *Meter) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// WaitTotal blocks until the delivered byte total reaches at least min or
// timeout elapses, and returns the total at that moment. The wait is
// condition-signalled by Record, so callers (typically tests synchronizing
// on asynchronous delivery) wake the instant the traffic lands instead of
// sleep-polling.
func (m *Meter) WaitTotal(min int64, timeout time.Duration) int64 {
	//rpolvet:ignore nowallclock bounded wait for real-TCP delivery; the timeout never reaches protocol state
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		m.mu.Lock()
		if m.total >= min {
			t := m.total
			m.mu.Unlock()
			return t
		}
		if m.watch == nil {
			m.watch = make(chan struct{})
		}
		ch := m.watch
		m.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			m.mu.Lock()
			t := m.total
			m.mu.Unlock()
			return t
		}
	}
}

// SentBy returns the bytes sent by the named endpoint.
func (m *Meter) SentBy(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sent[name]
}

// ReceivedBy returns the bytes received by the named endpoint.
func (m *Meter) ReceivedBy(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.received[name]
}

// Messages returns the number of delivered messages.
func (m *Meter) Messages() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.messages
}

// Dropped returns the number of undeliverable messages and their bytes.
func (m *Meter) Dropped() (msgs, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped, m.droppedBytes
}

// ByKind returns a copy of the per-message-kind byte totals.
func (m *Meter) ByKind() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.byKind))
	for k, v := range m.byKind {
		out[k] = v
	}
	return out
}

// Reset zeroes all counters (attached obs counters are cumulative and are
// left untouched — reset those through their registry).
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sent = make(map[string]int64)
	m.received = make(map[string]int64)
	m.byKind = make(map[string]int64)
	m.total = 0
	m.messages = 0
	m.dropped = 0
	m.droppedBytes = 0
	m.injectedDrops = 0
	m.injectedDelays = 0
}
