package obs

import "sync"

// Live event kinds published by instrumented protocol code. Events are the
// discrete counterpart of the registry's cumulative counters: "worker-07
// was absent in epoch 3" rather than "absences so far: 5". They exist for
// operators watching a long-running pool, so publication must never block
// or perturb the protocol hot path (see Events).
const (
	// EventEpochSealed marks one pool epoch settled: verdicts recorded,
	// rewards credited, global model advanced.
	EventEpochSealed = "epoch_sealed"
	// EventPoolResumed marks a pool recovering its position from the epoch
	// journal after a restart.
	EventPoolResumed = "pool_resumed"
	// EventVerdictAccepted and EventVerdictRejected are per-worker
	// verification outcomes.
	EventVerdictAccepted = "verdict_accepted"
	EventVerdictRejected = "verdict_rejected"
	// EventWorkerAbsent marks a worker that missed an epoch entirely
	// (crash, partition, persistent loss) — unreachable, not adversarial.
	EventWorkerAbsent = "worker_absent"
	// EventCheckpointCorrupt marks a durable checkpoint whose bytes failed
	// their digest on resume; the worker falls back to the prefix before it.
	EventCheckpointCorrupt = "checkpoint_corrupt"
	// EventFaultInjected marks one fault a deterministic FaultPlan injected
	// into a message fabric (a drop or a delay).
	EventFaultInjected = "fault_injected"
	// EventJournalRecovery marks a journal replay: the intact prefix
	// adopted, the torn tail discarded.
	EventJournalRecovery = "journal_recovery"
)

// StreamEvent is one entry in the live event log. Seq and TS are assigned
// at publish time: Seq is strictly increasing within one Events log, and TS
// is a reading of the log's clock (logical by default, so event timestamps
// never perturb — or depend on — protocol results).
type StreamEvent struct {
	Seq    uint64 `json:"seq"`
	TS     int64  `json:"ts"`
	Kind   string `json:"kind"`
	Worker string `json:"worker,omitempty"`
	Epoch  int64  `json:"epoch"`
	Detail string `json:"detail,omitempty"`
}

// Events is a bounded, ring-buffered event log with pull-based tailing:
// publishers append under a single short lock, consumers read by sequence
// number. When a consumer falls behind the ring's capacity the oldest
// events are simply overwritten (drop-oldest) and the gap is reported — and
// counted in obs_events_dropped_total once Observe attached a registry — so
// a slow dashboard can never apply backpressure to the protocol.
//
// A nil *Events no-ops on every method, mirroring the package's instrument
// contract, so publication sites need no enablement checks.
type Events struct {
	clock Clock

	mu      sync.Mutex
	ring    []StreamEvent
	next    uint64 // next sequence number to assign (first is 1)
	last    map[string]StreamEvent
	dropped int64
	cDrop   *Counter
}

// defaultEventCapacity sizes the ring when NewEvents gets capacity <= 0.
const defaultEventCapacity = 1024

// NewEvents returns an event log retaining the most recent capacity events
// (a capacity <= 0 selects the 1024-entry default). Timestamps come from
// clock; nil selects a fresh deterministic SimClock.
func NewEvents(capacity int, clock Clock) *Events {
	if capacity <= 0 {
		capacity = defaultEventCapacity
	}
	if clock == nil {
		clock = NewSimClock(0)
	}
	return &Events{
		clock: clock,
		ring:  make([]StreamEvent, capacity),
		next:  1,
		last:  make(map[string]StreamEvent),
	}
}

// Observe mirrors the log's drop accounting into reg as
// obs_events_dropped_total. Drops recorded before Observe are backfilled.
func (e *Events) Observe(reg *Registry) {
	if e == nil || reg == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cDrop = reg.Counter("obs_events_dropped_total")
	e.cDrop.Add(e.dropped)
}

// Clock returns the clock the log stamps events with (nil for a nil log).
func (e *Events) Clock() Clock {
	if e == nil {
		return nil
	}
	return e.clock
}

// Publish appends one event, assigning its sequence number and timestamp.
// It never blocks beyond the log's own short lock: slow consumers lose old
// events instead of stalling the publisher.
func (e *Events) Publish(ev StreamEvent) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ev.Seq = e.next
	ev.TS = e.clock.Now()
	e.next++
	e.ring[int((ev.Seq-1)%uint64(len(e.ring)))] = ev
	e.last[ev.Kind] = ev
}

// Last returns the most recent event of the given kind.
func (e *Events) Last(kind string) (StreamEvent, bool) {
	if e == nil {
		return StreamEvent{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ev, ok := e.last[kind]
	return ev, ok
}

// Since copies out every retained event with sequence number > since, in
// order. latest is the newest sequence number assigned so far (pass it — or
// the last returned event's Seq — as the next call's since). dropped counts
// events the caller asked for that were already overwritten; it is also
// added to the log's drop accounting.
func (e *Events) Since(since uint64) (evs []StreamEvent, latest uint64, dropped uint64) {
	if e == nil {
		return nil, 0, 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	latest = e.next - 1
	start := since + 1
	oldest := uint64(1)
	if n := uint64(len(e.ring)); e.next > n+1 {
		oldest = e.next - n
	}
	if start < oldest {
		dropped = oldest - start
		e.dropped += int64(dropped)
		e.cDrop.Add(int64(dropped))
		start = oldest
	}
	if start > latest {
		return nil, latest, dropped
	}
	evs = make([]StreamEvent, 0, latest-start+1)
	for seq := start; seq <= latest; seq++ {
		evs = append(evs, e.ring[int((seq-1)%uint64(len(e.ring)))])
	}
	return evs, latest, dropped
}
