package netsim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rpol/internal/obs"
)

// Message is one payload in flight on the Bus.
type Message struct {
	From    string
	To      string
	Kind    string // protocol message type, e.g. "commit", "proof-request"
	Payload []byte
	// Seq is the sender's request/response correlation number: the wire
	// layer stamps requests with a fresh Seq and workers echo it, so a
	// retrying caller can discard stale replies to earlier attempts. Zero
	// for callers that don't correlate.
	Seq uint64
}

// Size returns the accounted wire size of the message: payload plus a small
// fixed header, approximating a TLS record with framing.
func (m Message) Size() int64 { return int64(len(m.Payload)) + 64 }

// Bus is an in-memory, metered message fabric connecting named endpoints.
// It stands in for the TLS channels between the manager and workers; every
// delivered byte is recorded in the Meter.
type Bus struct {
	mu        sync.Mutex
	endpoints map[string]chan Message
	meter     *Meter
	closed    bool

	// Fault injection (nil plan = none). linkSeq orders each directed
	// link's messages so the plan's decisions are a pure function of the
	// link's own traffic, immune to cross-link interleaving.
	faults  *FaultPlan
	clock   obs.Clock
	linkSeq map[string]uint64
	events  *obs.Events
}

// publishFault mirrors an injected fault into a live event stream: the
// transport's explicit log if one was attached with StreamEvents, else the
// process-wide default observer's log. Unobserved transports pay only two
// nil checks on the (already rare) fault path.
func publishFault(events *obs.Events, what, msgKind, from, to string) {
	if events == nil {
		events = obs.Default().Events()
	}
	if events == nil {
		return
	}
	events.Publish(obs.StreamEvent{
		Kind:   obs.EventFaultInjected,
		Worker: to,
		Detail: what + " " + msgKind + " " + from + "->" + to,
	})
}

// Errors returned by Bus operations.
var (
	ErrUnknownEndpoint = errors.New("netsim: unknown endpoint")
	ErrDuplicate       = errors.New("netsim: endpoint already registered")
	ErrClosed          = errors.New("netsim: bus closed")
)

// busQueueDepth bounds each endpoint's in-flight messages. The pool protocol
// is strictly request/response per epoch, so the depth only needs to cover
// one round of fan-in from all peers.
const busQueueDepth = 1024

// NewBus returns an empty bus with a fresh meter.
func NewBus() *Bus {
	return &Bus{
		endpoints: make(map[string]chan Message),
		meter:     NewMeter(),
	}
}

// Meter returns the bus's byte meter.
func (b *Bus) Meter() *Meter { return b.meter }

// InjectFaults applies a deterministic fault plan to every subsequent Send.
// clock is the logical clock injected delays advance (typically the run's
// obs.SimClock); it may be nil, in which case delays are accounting-only.
// A nil plan restores fault-free delivery.
func (b *Bus) InjectFaults(plan *FaultPlan, clock obs.Clock) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.faults = plan
	b.clock = clock
	if plan != nil && b.linkSeq == nil {
		b.linkSeq = make(map[string]uint64)
	}
}

// Observe mirrors the bus's traffic into reg under net_bus_* counters.
func (b *Bus) Observe(reg *obs.Registry) { b.meter.Attach(reg, "bus") }

// StreamEvents mirrors injected faults into e as fault_injected events (in
// addition to the meter's counters). Nil falls back to the process-wide
// default observer's event log, if any.
func (b *Bus) StreamEvents(e *obs.Events) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = e
}

// Endpoint is one party's handle on the bus.
type Endpoint struct {
	bus   *Bus
	name  string
	inbox chan Message
}

// Register adds a named endpoint. Names must be unique.
func (b *Bus) Register(name string) (*Endpoint, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if _, ok := b.endpoints[name]; ok {
		return nil, fmt.Errorf("%s: %w", name, ErrDuplicate)
	}
	ch := make(chan Message, busQueueDepth)
	b.endpoints[name] = ch
	return &Endpoint{bus: b, name: name, inbox: ch}, nil
}

// Close shuts the bus down; subsequent sends fail and pending receivers
// drain then see closed inboxes.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, ch := range b.endpoints {
		close(ch)
	}
}

// Name returns the endpoint's registered name.
func (e *Endpoint) Name() string { return e.name }

// Send delivers a message to the named endpoint and meters its size.
func (e *Endpoint) Send(to, kind string, payload []byte) error {
	return e.SendSeq(to, kind, 0, payload)
}

// SendSeq delivers a message carrying the given correlation number. The
// lock is held across the (non-blocking) enqueue exactly as TCPHub.route
// holds its own: a concurrent Close closes every inbox, so releasing the
// lock before the enqueue would race the close and panic the sender.
func (e *Endpoint) SendSeq(to, kind string, seq uint64, payload []byte) error {
	b := e.bus
	// Fault events publish only after the critical section: this defer is
	// registered before the Lock below, so LIFO ordering runs it after the
	// deferred Unlock, keeping the observer fan-out outside the lock.
	var pendingFaults []string
	defer func() {
		for _, what := range pendingFaults {
			publishFault(b.events, what, kind, e.name, to)
		}
	}()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	ch, ok := b.endpoints[to]
	if !ok {
		return fmt.Errorf("%s: %w", to, ErrUnknownEndpoint)
	}
	msg := Message{From: e.name, To: to, Kind: kind, Payload: payload, Seq: seq}
	if b.faults != nil {
		link := e.name + "\x00" + to
		n := b.linkSeq[link]
		b.linkSeq[link] = n + 1
		fault := b.faults.Decide(e.name, to, n)
		if fault.Drop {
			// A real lossy network loses the packet silently: the sender
			// sees success and only the meter (and the receiver's silence)
			// records the loss.
			b.meter.RecordInjectedDrop(e.name, to, kind, msg.Size())
			pendingFaults = append(pendingFaults, "drop")
			return nil
		}
		if fault.Delay > 0 {
			b.meter.RecordInjectedDelay()
			pendingFaults = append(pendingFaults, "delay")
			if adv, ok := b.clock.(advancer); ok {
				adv.Advance(fault.Delay)
			}
		}
	}
	select {
	case ch <- msg:
		b.meter.Record(e.name, to, kind, msg.Size())
		return nil
	default:
		// The send fails loudly (error below) but the attempted bytes must
		// not vanish from the accounting either.
		b.meter.RecordDrop(e.name, to, kind, msg.Size())
		return fmt.Errorf("netsim: inbox of %s full", to)
	}
}

// Recv blocks until a message arrives or the bus closes.
func (e *Endpoint) Recv() (Message, error) {
	msg, ok := <-e.inbox
	if !ok {
		return Message{}, ErrClosed
	}
	return msg, nil
}

// TryRecv returns the next message if one is queued.
func (e *Endpoint) TryRecv() (Message, bool) {
	select {
	case msg, ok := <-e.inbox:
		if !ok {
			return Message{}, false
		}
		return msg, true
	default:
		return Message{}, false
	}
}

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

// Attach mirrors the meter's totals into reg under the transport name:
// net_<transport>_bytes_total, net_<transport>_messages_total,
// net_<transport>_dropped_total, net_<transport>_dropped_bytes_total.
// Traffic recorded before Attach is not backfilled.
func (m *Meter) Attach(reg *obs.Registry, transport string) {
	if reg == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cBytes = reg.Counter("net_" + transport + "_bytes_total")
	m.cMsgs = reg.Counter("net_" + transport + "_messages_total")
	m.cDropped = reg.Counter("net_" + transport + "_dropped_total")
	m.cDroppedBytes = reg.Counter("net_" + transport + "_dropped_bytes_total")
	m.cInjDrops = reg.Counter("net_" + transport + "_injected_drops_total")
	m.cInjDelays = reg.Counter("net_" + transport + "_injected_delays_total")
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
	if bytes < 0 {
		bytes = 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dropped++
	m.droppedBytes += bytes
	m.injectedDrops++
	m.signalLocked()
	m.cDropped.Inc()
	m.cDroppedBytes.Add(bytes)
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
