package main

import (
	"sort"
	"sync"

	"rpol/internal/obs"
)

// Span names. The harness records every span from outside the program, around
// its calls into a layer; the names are <module>.<operation> with the module
// that owns the code under the span.
const (
	spanEpoch         = "epoch"
	spanRemoteRun     = "wire.remote.run_epoch"
	spanRemoteOpen    = "wire.remote.open_checkpoint"
	spanRemoteProof   = "wire.remote.open_proof"
	spanWorkerRun     = "rpol.worker.run_epoch"
	spanWorkerOpen    = "rpol.worker.open_checkpoint"
	spanWorkerProof   = "rpol.worker.open_proof"
	spanStorePut      = "checkpoint.put"
	spanStoreGet      = "checkpoint.get"
	spanFSWriteAtomic = "fsio.write_atomic"
	spanFSAppendSync  = "fsio.append_sync"
	spanFSRead        = "fsio.read_file"
)

// noSpan is the parent of a root span and the id a nil tracer hands out.
const noSpan = -1

// span is one timed call into a layer. Parent is the index of the span that
// caused it — for a worker-side span, the manager-side call on the other end
// of the hub, on another goroutine. Task and Epoch identify the request all
// spans of one epoch share; Worker and File say whose call it was.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Task   int    `json:"task"`
	Epoch  int    `json:"epoch"`
	Worker string `json:"worker,omitempty"`
	File   string `json:"file,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs never install it. Parents are passed explicitly:
// the harness opens the epoch span, a manager-side decorator registers its
// open call under the worker's id, and the worker-side decorator on the
// serving goroutine looks that id up — no goroutine-local state, so the
// parenting stays right if collection ever becomes concurrent.
type tracer struct {
	clock obs.Clock

	mu      sync.Mutex
	spans   []span
	task    int
	epoch   int
	current int            // open epoch span, noSpan between epochs
	callers map[string]int // worker id → open manager-side call
	serving map[string]int // worker id → open worker-side call
}

func newTracer(clock obs.Clock) *tracer {
	return &tracer{
		clock:   clock,
		current: noSpan,
		callers: make(map[string]int),
		serving: make(map[string]int),
	}
}

// begin opens a span under parent and returns its id. Only epochs are roots:
// a call made outside any epoch (pool construction, teardown) is not
// recorded, so every span belongs to exactly one epoch's tree.
func (t *tracer) begin(name string, parent int, worker, file string) int {
	if t == nil || (parent == noSpan && name != spanEpoch) {
		return noSpan
	}
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: now, End: now, Parent: parent,
		Task: t.task, Epoch: t.epoch, Worker: worker, File: file,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := t.clock.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// beginEpoch opens the root span of one RunEpoch call.
func (t *tracer) beginEpoch(task, epoch int) int {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	t.task, t.epoch = task, epoch
	t.mu.Unlock()
	id := t.begin(spanEpoch, noSpan, "", "")
	t.mu.Lock()
	t.current = id
	t.mu.Unlock()
	return id
}

func (t *tracer) endEpoch(id int) {
	if t == nil {
		return
	}
	t.end(id)
	t.mu.Lock()
	t.current = noSpan
	t.mu.Unlock()
}

// epochSpan returns the open epoch span (noSpan outside an epoch).
func (t *tracer) epochSpan() int {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.current
}

// lookup returns the open call registered for worker in m, else fallback.
func (t *tracer) lookup(m map[string]int, worker string, fallback int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := m[worker]; ok {
		return id
	}
	return fallback
}

func (t *tracer) register(m map[string]int, worker string, id int) {
	t.mu.Lock()
	m[worker] = id
	t.mu.Unlock()
}

func (t *tracer) unregister(m map[string]int, worker string) {
	t.mu.Lock()
	delete(m, worker)
	t.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of its
// interval that its children cover. Children are clipped to the parent and
// overlapping children are counted once, so the self times of a tree always
// sum to the root's duration.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}
