package obs

import (
	"math"
	"testing"
)

func TestDiffSnapshots(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total").Add(5)
	reg.Gauge("g").Set(1.5)
	reg.Histogram("h", []float64{1, 10}).Observe(0.5)
	prev := reg.Snapshot()

	reg.Counter("a_total").Add(2)
	reg.Counter("b_total").Add(1)
	reg.Histogram("h", nil).Observe(3)
	cur := reg.Snapshot()

	d := DiffSnapshots(prev, cur)
	if d.Counters["a_total"] != 2 || d.Counters["b_total"] != 1 {
		t.Errorf("counter deltas = %v", d.Counters)
	}
	if _, ok := d.Gauges["g"]; ok {
		t.Error("unchanged gauge reported")
	}
	h, ok := d.Histograms["h"]
	if !ok {
		t.Fatal("histogram delta missing")
	}
	if h.Count != 1 || h.Sum != 3 {
		t.Errorf("histogram delta count=%d sum=%g", h.Count, h.Sum)
	}
	if h.Counts[0] != 0 || h.Counts[1] != 1 {
		t.Errorf("bucket deltas = %v", h.Counts)
	}

	// No changes → empty delta.
	if d := DiffSnapshots(cur, reg.Snapshot()); len(d.Counters)+len(d.Gauges)+len(d.Histograms) != 0 {
		t.Errorf("no-op delta = %+v", d)
	}
}

func TestSnapshotApplyRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total").Add(5)
	reg.Gauge("g").Set(0.25)
	reg.Histogram("h", []float64{1}).Observe(0.5)
	prev := reg.Snapshot()

	reg.Counter("a_total").Add(7)
	reg.Gauge("g").Set(0.75)
	reg.Histogram("h", nil).Observe(2)
	cur := reg.Snapshot()

	got := prev.Apply(DiffSnapshots(prev, cur))
	if got.Counters["a_total"] != 7+5 {
		t.Errorf("applied counter = %d", got.Counters["a_total"])
	}
	if got.Gauges["g"] != 0.75 {
		t.Errorf("applied gauge = %g", got.Gauges["g"])
	}
	h := got.Histograms["h"]
	if h.Count != 2 || h.Sum != 2.5 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("applied histogram = %+v", h)
	}
}

func TestMetricsStreamDeltaSince(t *testing.T) {
	reg := NewRegistry()
	stream := NewMetricsStream(reg, 4)

	reg.Counter("x_total").Add(3)
	seq1, snap := stream.Capture()
	if seq1 != 1 || snap.Counters["x_total"] != 3 {
		t.Fatalf("capture 1 = seq %d, %v", seq1, snap.Counters)
	}

	reg.Counter("x_total").Add(4)
	d := stream.DeltaSince(seq1)
	if d.Full {
		t.Error("delta against retained capture marked full")
	}
	if d.Since != seq1 || d.Seq <= seq1 {
		t.Errorf("delta seqs = %+v", d)
	}
	if d.Counters["x_total"] != 4 {
		t.Errorf("delta counter = %v", d.Counters)
	}

	// since=0 is always a full state.
	d = stream.DeltaSince(0)
	if !d.Full || d.Counters["x_total"] != 7 {
		t.Errorf("full delta = %+v", d)
	}

	// Age the first capture out of the 4-entry history: the delta degrades
	// to a full snapshot instead of failing.
	for i := 0; i < 6; i++ {
		stream.Capture()
	}
	d = stream.DeltaSince(seq1)
	if !d.Full {
		t.Error("delta against aged-out capture not marked full")
	}
	if d.Counters["x_total"] != 7 {
		t.Errorf("aged-out delta counter = %v", d.Counters)
	}
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q", []float64{10, 20, 40})
	// 10 observations in [0,10], 10 in (10,20], none above.
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	snap := reg.Snapshot().Histograms["q"]
	if got := snap.Quantile(0.5); math.Abs(got-10) > 1e-9 {
		t.Errorf("p50 = %g, want 10", got)
	}
	if got := snap.Quantile(0.25); math.Abs(got-5) > 1e-9 {
		t.Errorf("p25 = %g, want 5", got)
	}
	if got := snap.Quantile(0.75); math.Abs(got-15) > 1e-9 {
		t.Errorf("p75 = %g, want 15", got)
	}
	if got := snap.Quantile(1); math.Abs(got-20) > 1e-9 {
		t.Errorf("p100 = %g, want 20", got)
	}

	// Overflow bucket clamps to the highest finite bound.
	h.Observe(1000)
	snap = reg.Snapshot().Histograms["q"]
	if got := snap.Quantile(0.99); math.Abs(got-40) > 1e-9 {
		t.Errorf("overflow p99 = %g, want 40", got)
	}

	// Degenerate cases.
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g", got)
	}
	noBounds := HistogramSnapshot{Counts: []int64{4}, Sum: 8, Count: 4}
	if got := noBounds.Quantile(0.5); math.Abs(got-2) > 1e-9 {
		t.Errorf("boundless quantile = %g, want mean 2", got)
	}
}
