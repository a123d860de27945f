package netsim

import (
	"sync"

	"rpol/internal/obs"
)

// Meter accumulates delivered bytes and message counts, grouped by message
// kind. Dropped traffic, organic or injected by a FaultPlan, and injected
// delays are counted only in the obs counters Attach installs: before a
// registry is attached they are not recorded, and Attach does not backfill
// them. It is safe for concurrent use.
type Meter struct {
	mu       sync.Mutex
	byKind   map[string]int64
	total    int64
	messages int64

	// Mirrored obs counters; nil until Attach.
	cBytes, cMsgs, cDropped, cDroppedBytes *obs.Counter
	cInjDrops, cInjDelays                  *obs.Counter
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{byKind: make(map[string]int64)}
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

// Record accounts one delivered transfer of the given message kind.
func (m *Meter) Record(kind string, bytes int64) {
	if bytes < 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byKind[kind] += bytes
	m.total += bytes
	m.messages++
	m.cBytes.Add(bytes)
	m.cMsgs.Inc()
}

// RecordDrop counts one message that could not be delivered (unknown
// destination, full queue) in net_tcp_dropped_total and its bytes in
// net_tcp_dropped_bytes_total, once a registry is attached.
func (m *Meter) RecordDrop(bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recordDropLocked(bytes)
}

// RecordInjectedDrop counts one message a FaultPlan lost in transit, once a
// registry is attached: in the same dropped counters as an organic drop,
// and in net_tcp_injected_drops_total.
func (m *Meter) RecordInjectedDrop(bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recordDropLocked(bytes)
	m.cInjDrops.Inc()
}

// recordDropLocked counts one dropped message; m.mu is held.
func (m *Meter) recordDropLocked(bytes int64) {
	m.cDropped.Inc()
	m.cDroppedBytes.Add(max(bytes, 0))
}

// RecordInjectedDelay counts one delivery a FaultPlan delayed in transit in
// net_tcp_injected_delays_total, once a registry is attached.
func (m *Meter) RecordInjectedDelay() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cInjDelays.Inc()
}

// Total returns all bytes transferred.
func (m *Meter) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Messages returns the number of delivered messages.
func (m *Meter) Messages() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.messages
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
