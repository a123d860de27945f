package obs

import (
	"sync"
	"testing"
)

func TestEventsPublishAndSince(t *testing.T) {
	e := NewEvents(8, nil)
	for i := 0; i < 3; i++ {
		e.Publish(StreamEvent{Kind: EventEpochSealed, Epoch: int64(i)})
	}
	evs, latest, dropped := e.Since(0)
	if len(evs) != 3 || latest != 3 || dropped != 0 {
		t.Fatalf("Since(0) = %d events, latest %d, dropped %d", len(evs), latest, dropped)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Epoch != int64(i) {
			t.Errorf("event %d has epoch %d", i, ev.Epoch)
		}
		if ev.TS == 0 {
			t.Errorf("event %d has no timestamp", i)
		}
		if i > 0 && ev.TS <= evs[i-1].TS {
			t.Errorf("timestamps not increasing: %d then %d", evs[i-1].TS, ev.TS)
		}
	}
	// Incremental tail: only the new events since the cursor.
	e.Publish(StreamEvent{Kind: EventWorkerAbsent, Worker: "w1", Epoch: 3})
	evs, latest, dropped = e.Since(3)
	if len(evs) != 1 || latest != 4 || dropped != 0 {
		t.Fatalf("Since(3) = %d events, latest %d, dropped %d", len(evs), latest, dropped)
	}
	if evs[0].Kind != EventWorkerAbsent || evs[0].Worker != "w1" {
		t.Errorf("tail event = %+v", evs[0])
	}
}

func TestEventsDropOldestAccounting(t *testing.T) {
	reg := NewRegistry()
	e := NewEvents(4, nil)
	e.Observe(reg)
	for i := 0; i < 10; i++ {
		e.Publish(StreamEvent{Kind: EventFaultInjected, Epoch: int64(i)})
	}
	// A consumer starting from 0 can only see the last 4 of 10 events; the
	// 6 overwritten ones are reported as its gap and counted.
	evs, latest, dropped := e.Since(0)
	if latest != 10 || dropped != 6 {
		t.Fatalf("latest %d dropped %d, want 10 and 6", latest, dropped)
	}
	if len(evs) != 4 || evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("retained window = %+v", evs)
	}
	if e.dropped != 6 {
		t.Errorf("the log counts %d drops, want 6", e.dropped)
	}
	if got := reg.Counter("obs_events_dropped_total").Value(); got != 6 {
		t.Errorf("obs_events_dropped_total = %d", got)
	}
}

// TestEventsSlowSubscriber: two consumers tail one log through Since, each
// with its own cursor; the one that reads too rarely loses the overwritten
// events and sees the loss, and the other loses nothing it could have read.
func TestEventsSlowSubscriber(t *testing.T) {
	reg := NewRegistry()
	e := NewEvents(4, nil)
	e.Observe(reg)
	var fast, slow uint64 // each consumer's cursor

	e.Publish(StreamEvent{Kind: EventEpochSealed, Epoch: 0})
	e.Publish(StreamEvent{Kind: EventEpochSealed, Epoch: 1})
	evs, fast, dropped := e.Since(fast)
	if len(evs) != 2 || dropped != 0 {
		t.Fatalf("fast read: %d events, dropped %d", len(evs), dropped)
	}
	// The slow consumer sleeps through 8 more publishes: the ring holds 4,
	// so 6 of its 10 pending events are gone by the time it reads.
	for i := 2; i < 10; i++ {
		e.Publish(StreamEvent{Kind: EventEpochSealed, Epoch: int64(i)})
	}
	evs, slow, dropped = e.Since(slow)
	if dropped != 6 {
		t.Fatalf("slow consumer dropped %d, want 6", dropped)
	}
	if len(evs) != 4 || evs[0].Seq != 7 || slow != 10 {
		t.Fatalf("slow consumer events = %+v, cursor %d", evs, slow)
	}
	if got := reg.Counter("obs_events_dropped_total").Value(); got != 6 {
		t.Errorf("obs_events_dropped_total = %d", got)
	}
	// It read after 2, then 8 more arrived into a 4-ring: 4 lost.
	if evs, _, dropped := e.Since(fast); len(evs) != 4 || dropped != 4 {
		t.Fatalf("fast second read: %d events, dropped %d", len(evs), dropped)
	}
	// A caught-up cursor reads nothing more.
	if evs, latest, dropped := e.Since(slow); evs != nil || latest != slow || dropped != 0 {
		t.Errorf("caught-up read = %d events, latest %d, dropped %d", len(evs), latest, dropped)
	}
}

// TestEventsSubscriptionWakeup: a tailing consumer positioned at the end of
// the log reads nothing until the next publish, then exactly that event.
func TestEventsSubscriptionWakeup(t *testing.T) {
	e := NewEvents(8, nil)
	e.Publish(StreamEvent{Kind: EventEpochSealed})
	_, cursor, _ := e.Since(0)
	if evs, latest, _ := e.Since(cursor); evs != nil || latest != cursor {
		t.Fatalf("read %d events before any further publish", len(evs))
	}
	e.Publish(StreamEvent{Kind: EventJournalRecovery})
	evs, latest, _ := e.Since(cursor)
	if len(evs) != 1 || evs[0].Kind != EventJournalRecovery || latest != cursor+1 {
		t.Fatalf("read after publish = %+v, latest %d", evs, latest)
	}
}

func TestEventsLastAndNilSafety(t *testing.T) {
	e := NewEvents(4, nil)
	if _, ok := e.Last(EventEpochSealed); ok {
		t.Error("Last on empty log")
	}
	e.Publish(StreamEvent{Kind: EventEpochSealed, Epoch: 7})
	if ev, ok := e.Last(EventEpochSealed); !ok || ev.Epoch != 7 {
		t.Errorf("Last = %+v, %v", ev, ok)
	}

	var nilEv *Events
	nilEv.Publish(StreamEvent{Kind: "x"})
	nilEv.Observe(NewRegistry())
	if _, _, d := nilEv.Since(0); d != 0 {
		t.Error("nil Since dropped != 0")
	}
	if _, ok := nilEv.Last(EventEpochSealed); ok {
		t.Error("nil Last found an event")
	}

	var nilObs *Observer
	nilObs.Publish(StreamEvent{Kind: "x"}) // must not panic
	nilObs.AttachEvents(e)
	if nilObs.Events() != nil {
		t.Error("nil observer Events != nil")
	}
	o := NewObserver(NewRegistry(), nil)
	o.Publish(StreamEvent{Kind: "x"}) // no log attached: no-op
	o.AttachEvents(e)
	o.Publish(StreamEvent{Kind: EventPoolResumed})
	if _, ok := e.Last(EventPoolResumed); !ok {
		t.Error("observer publish did not reach the log")
	}
}

// TestEventsConcurrentPublishPoll races publishers against tailing and
// snapshotting consumers; run under -race this is the single-lock publish
// safety proof.
func TestEventsConcurrentPublishPoll(t *testing.T) {
	reg := NewRegistry()
	e := NewEvents(64, nil)
	e.Observe(reg)
	const publishers, perPublisher = 4, 250

	// The cursor starts before any publisher does, so every event is either
	// tailed or counted as dropped.
	var cursor uint64
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				reg.Counter("race_total").Inc()
				e.Publish(StreamEvent{Kind: EventVerdictAccepted, Epoch: int64(i)})
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var tailed, dropped uint64
	stream := NewMetricsStream(reg, 8)
	var lastSeq uint64
poll:
	for {
		evs, latest, d := e.Since(cursor)
		cursor = latest
		tailed += uint64(len(evs))
		dropped += d
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq <= evs[i-1].Seq {
				t.Fatalf("non-monotonic seqs %d, %d", evs[i-1].Seq, evs[i].Seq)
			}
		}
		delta := stream.DeltaSince(lastSeq)
		if delta.Seq <= lastSeq {
			t.Fatalf("stream seq went backwards: %d after %d", delta.Seq, lastSeq)
		}
		lastSeq = delta.Seq
		select {
		case <-done:
			break poll
		default:
		}
	}
	evs, latest, d := e.Since(cursor)
	tailed += uint64(len(evs))
	dropped += d
	if total := tailed + dropped; total != publishers*perPublisher {
		t.Errorf("tailed %d + dropped %d = %d, want %d",
			tailed, dropped, tailed+dropped, publishers*perPublisher)
	}
	if latest != publishers*perPublisher {
		t.Errorf("latest = %d", latest)
	}
}
