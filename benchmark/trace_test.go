package main

import (
	"sync"
	"testing"
)

// stepClock is a clock the test sets by hand.
type stepClock struct{ now int64 }

func (c *stepClock) Now() int64 { return c.now }

// TestSelfTimeNestedAcrossGoroutines records the span tree of one remote
// epoch — the worker side on another goroutine, as behind a hub — and checks
// parents, self times and that they sum to the epoch.
func TestSelfTimeNestedAcrossGoroutines(t *testing.T) {
	clock := &stepClock{}
	tr := newTracer(clock)
	at := func(ns int64) { clock.now = ns }

	at(0)
	epoch := tr.beginEpoch(3, 7)
	at(10)
	remote := tr.begin(spanRemoteRun, tr.epochSpan(), "worker-01", "")
	tr.register(tr.callers, "worker-01", remote)

	var served sync.WaitGroup
	served.Add(1)
	go func() { // the WorkerServer's goroutine
		defer served.Done()
		at(20)
		worker := tr.begin(spanWorkerRun, tr.lookup(tr.callers, "worker-01", tr.epochSpan()), "worker-01", "")
		tr.register(tr.serving, "worker-01", worker)
		at(30)
		put := tr.begin(spanStorePut, tr.lookup(tr.serving, "worker-01", tr.epochSpan()), "worker-01", "")
		at(35)
		tr.end(put)
		at(50)
		tr.unregister(tr.serving, "worker-01")
		tr.end(worker)
	}()
	served.Wait()
	at(60)
	tr.unregister(tr.callers, "worker-01")
	tr.end(remote)
	at(100)
	tr.endEpoch(epoch)

	spans := tr.snapshot()
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	wantParent := map[string]string{spanRemoteRun: spanEpoch, spanWorkerRun: spanRemoteRun, spanStorePut: spanWorkerRun}
	wantSelf := map[string]int64{spanEpoch: 50, spanRemoteRun: 20, spanWorkerRun: 25, spanStorePut: 5}
	self := selfTimes(spans)
	var total int64
	for i, s := range spans {
		if s.Task != 3 || s.Epoch != 7 {
			t.Errorf("%s carries id (task %d, epoch %d), want (3, 7)", s.Name, s.Task, s.Epoch)
		}
		if want, ok := wantParent[s.Name]; ok && spans[s.Parent].Name != want {
			t.Errorf("%s is parented on %s, want %s", s.Name, spans[s.Parent].Name, want)
		}
		if self[i] != wantSelf[s.Name] {
			t.Errorf("%s self time = %d, want %d", s.Name, self[i], wantSelf[s.Name])
		}
		total += self[i]
	}
	if total != spans[epoch].dur() {
		t.Errorf("self times sum to %d, the epoch lasted %d", total, spans[epoch].dur())
	}
}

// TestSelfTimeClipsChildren: children that overlap each other or outlast the
// parent are counted once and only inside the parent.
func TestSelfTimeClipsChildren(t *testing.T) {
	spans := []span{
		{Name: spanEpoch, Start: 0, End: 100, Parent: noSpan},
		{Name: "a", Start: 10, End: 50, Parent: 0},
		{Name: "b", Start: 40, End: 70, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 130, Parent: 0}, // outlasts the parent by 30
	}
	if got := selfTimes(spans)[0]; got != 100-(40+20+10) {
		t.Errorf("epoch self time = %d, want 30", got)
	}
}

// TestOnlyEpochsAreRoots: calls outside an epoch leave no span, and a nil
// tracer records nothing at all.
func TestOnlyEpochsAreRoots(t *testing.T) {
	tr := newTracer(&stepClock{})
	if id := tr.begin(spanFSWriteAtomic, tr.epochSpan(), "", fileState); id != noSpan {
		t.Errorf("a call outside any epoch was recorded as span %d", id)
	}
	var off *tracer
	off.endEpoch(off.beginEpoch(0, 0))
	off.end(off.begin(spanStorePut, off.epochSpan(), "w", ""))
	if got := len(tr.snapshot()) + len(off.snapshot()); got != 0 {
		t.Errorf("%d spans recorded, want none", got)
	}
}
