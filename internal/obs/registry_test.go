package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterMath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(41)
	c.Add(-5) // counters only go up
	c.Add(0)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("x") != c {
		t.Fatal("second lookup returned a different counter")
	}
}

func TestGaugeMath(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("acc")
	g.Set(0.75)
	g.Set(0.5)
	if got := g.Value(); got != 0.5 {
		t.Fatalf("gauge = %g, want 0.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	// Unsorted bounds are sorted at creation.
	h := r.Histogram("lat", []float64{10, 1, 5})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	if want := []float64{1, 5, 10}; len(s.Bounds) != 3 || s.Bounds[0] != want[0] || s.Bounds[2] != want[2] {
		t.Fatalf("bounds = %v, want %v", s.Bounds, want)
	}
	// 0.5 and 1 fall in le1 (SearchFloat64s: first bound >= v), 3 in le5,
	// 7 in le10, 100 overflows.
	if want := []int64{2, 1, 1, 1}; len(s.Counts) != 4 ||
		s.Counts[0] != want[0] || s.Counts[1] != want[1] || s.Counts[2] != want[2] || s.Counts[3] != want[3] {
		t.Fatalf("counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 5 || s.Sum != 111.5 {
		t.Fatalf("count=%d sum=%g, want 5 and 111.5", s.Count, s.Sum)
	}
	// Later lookups keep the original buckets.
	if h2 := r.Histogram("lat", []float64{99}); h2 != h {
		t.Fatal("re-lookup with different bounds returned a new histogram")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	r.Gauge("g").Set(2)
	r.Histogram("h", []float64{1}).Observe(0.5)
	s := r.Snapshot()

	r.Counter("c").Add(10)
	r.Gauge("g").Set(20)
	r.Histogram("h", nil).Observe(0.5)

	if s.Counters["c"] != 1 {
		t.Errorf("snapshot counter mutated: %d", s.Counters["c"])
	}
	if s.Gauges["g"] != 2 {
		t.Errorf("snapshot gauge mutated: %g", s.Gauges["g"])
	}
	if h := s.Histograms["h"]; h.Count != 1 {
		t.Errorf("snapshot histogram mutated: count=%d", h.Count)
	}
}

func TestResetKeepsInstrumentIdentity(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(7)
	h := r.Histogram("h", []float64{1})
	h.Observe(0.5)
	r.reset()
	if c.Value() != 0 {
		t.Errorf("counter after reset = %d", c.Value())
	}
	if s := r.Snapshot().Histograms["h"]; s.Count != 0 || s.Counts[0] != 0 {
		t.Errorf("histogram after reset: %+v", s)
	}
	// Cached handles stay live.
	c.Inc()
	if r.Counter("c").Value() != 1 {
		t.Error("cached counter handle detached by Reset")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h", []float64{1}).Observe(1)
	r.reset()
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}

	var o *Observer
	o.Counter("c").Inc()
	o.Start(nil, "span").End()
	if o.OrDefault() != Default() {
		t.Error("nil observer OrDefault != Default")
	}

	var tr *Tracer
	tr.Start(nil, "x").End()
	if err := tr.Err(); err != nil {
		t.Errorf("nil tracer err: %v", err)
	}
}

func TestWriteTextSortedExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Add(1)
	r.Gauge("alpha").Set(0.25)
	r.Histogram("err", []float64{1, 10}).Observe(3)
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "counter a_total 1\n" +
		"counter b_total 2\n" +
		"gauge alpha 0.25\n" +
		"histogram err count=1 sum=3 le1=0 le10=1 leInf=0\n"
	if sb.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Histogram("h", []float64{0.5}).Observe(float64(j % 2))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Snapshot().Histograms["h"].Count; got != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", got)
	}
}
