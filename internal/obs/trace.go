package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Attr is one key/value annotation on a span event.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Event is one JSONL trace record: a span start or end.
type Event struct {
	// Ev is "start" or "end".
	Ev string `json:"ev"`
	// ID is the span's identifier; Parent is 0 for root spans.
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name,omitempty"`
	// TS is the clock reading in nanoseconds (logical under SimClock).
	TS    int64          `json:"ts"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Tracer streams structured start/end span events as JSON Lines to a sink.
// It is safe for concurrent use; a nil tracer is fully disabled.
type Tracer struct {
	clock  Clock
	nextID atomic.Int64

	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewTracer writes span events to w, timestamping through clock (a fresh
// SimClock when nil). The caller owns w's lifecycle; wrap slow sinks in a
// bufio.Writer and Flush via Close.
func NewTracer(w io.Writer, clock Clock) *Tracer {
	if clock == nil {
		clock = NewSimClock(0)
	}
	return &Tracer{clock: clock, w: w}
}

// Span is one traced operation. A nil span is inert: Ending it, or starting
// children under it, is safe (children of a nil parent become root spans of
// whatever tracer starts them).
type Span struct {
	tracer *Tracer
	id     int64
	parent int64
	ended  atomic.Bool
}

// ID returns the span's identifier (0 for a nil span).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Start opens a span named name under parent (nil parent → root span) and
// writes its start event.
func (t *Tracer) Start(parent *Span, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tracer: t, id: t.nextID.Add(1), parent: parent.ID()}
	t.emit(Event{Ev: "start", ID: s.id, Parent: s.parent, Name: name, TS: t.clock.Now(), Attrs: attrMap(attrs)})
	return s
}

// End closes the span, writing its end event. Idempotent and nil-safe.
func (s *Span) End(attrs ...Attr) {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	t := s.tracer
	t.emit(Event{Ev: "end", ID: s.id, TS: t.clock.Now(), Attrs: attrMap(attrs)})
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

func (t *Tracer) emit(ev Event) {
	data, err := json.Marshal(ev)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(append(data, '\n')); err != nil {
		t.err = err
	}
}

// Err returns the first write or encoding error the tracer hit, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// ReadEvents parses a JSONL trace back into events (blank lines skipped).
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("obs trace line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs trace: %w", err)
	}
	return out, nil
}

// SpanTree indexes a parsed trace: the name and parent of every span.
type SpanTree struct {
	names   map[int64]string
	parents map[int64]int64
}

// BuildSpanTree indexes start events by span ID.
func BuildSpanTree(events []Event) *SpanTree {
	t := &SpanTree{names: make(map[int64]string), parents: make(map[int64]int64)}
	for _, ev := range events {
		if ev.Ev == "start" {
			t.names[ev.ID] = ev.Name
			t.parents[ev.ID] = ev.Parent
		}
	}
	return t
}

// Ancestry returns the span names from id up to its root, starting with id's
// own name.
func (t *SpanTree) Ancestry(id int64) []string {
	var out []string
	for id != 0 {
		name, ok := t.names[id]
		if !ok {
			break
		}
		out = append(out, name)
		id = t.parents[id]
	}
	return out
}

// SpansNamed returns the IDs of spans with the given name, in start order.
func (t *SpanTree) SpansNamed(name string) []int64 {
	var out []int64
	for id, n := range t.names {
		if n == name {
			out = append(out, id)
		}
	}
	// map iteration is unordered; IDs are assigned in start order
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
