package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. A nil counter
// no-ops, so instrumented code needs no enablement checks.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored — counters only go
// up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float metric. A nil gauge no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed upper-bound buckets plus an
// implicit +Inf overflow bucket. A nil histogram no-ops.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds
	counts []int64   // len(bounds)+1; last is overflow
	sum    float64
	n      int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i]++
	h.sum += v
	h.n++
}

// Registry is a named collection of instruments. Lookups create on first
// use; instruments are cached by callers on hot paths. All methods are
// nil-safe and safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending upper bounds on first use (later calls keep the original
// buckets). Unsorted bounds are sorted; empty bounds get a single overflow
// bucket.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
		r.hists[name] = h
	}
	return h
}

// reset zeroes every registered instrument (the instruments themselves stay
// registered, so cached handles remain valid).
func (r *Registry) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		h.mu.Lock()
		for i := range h.counts {
			h.counts[i] = 0
		}
		h.sum, h.n = 0, 0
		h.mu.Unlock()
	}
}

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	// Bounds are the ascending bucket upper bounds; Counts has one extra
	// trailing entry for the +Inf overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Quantile estimates the q-th quantile (q in [0, 1]) of the recorded
// distribution from the bucket tallies, interpolating linearly within the
// bucket the rank falls into — the standard exposition-format estimate. A
// rank landing in the +Inf overflow bucket is clamped to the highest finite
// bound (the mean when there are no finite bounds); an empty histogram
// estimates 0.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum int64
	for i, c := range h.Counts {
		if float64(cum+c) < rank || c == 0 {
			cum += c
			continue
		}
		if i >= len(h.Bounds) {
			break // overflow bucket: clamp below
		}
		upper := h.Bounds[i]
		lower := 0.0
		if i > 0 {
			lower = h.Bounds[i-1]
		} else if upper < 0 {
			lower = upper
		}
		return lower + (upper-lower)*((rank-float64(cum))/float64(c))
	}
	if len(h.Bounds) == 0 {
		return h.Sum / float64(h.Count)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a frozen, isolated copy of a registry's state: mutating the
// registry after the fact does not change it.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		h.mu.Lock()
		s.Histograms[name] = HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...),
			Sum:    h.sum,
			Count:  h.n,
		}
		h.mu.Unlock()
	}
	return s
}

// WriteText writes the snapshot in a sorted, line-oriented exposition
// format: one "kind name value" line per instrument.
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "gauge %s %g\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "histogram %s count=%d sum=%g", name, h.Count, h.Sum); err != nil {
			return err
		}
		for i, bound := range h.Bounds {
			if _, err := fmt.Fprintf(w, " le%g=%d", bound, h.Counts[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, " leInf=%d\n", h.Counts[len(h.Counts)-1]); err != nil {
			return err
		}
	}
	return nil
}
