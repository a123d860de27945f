package obs

import "testing"

func TestRenderTableGolden(t *testing.T) {
	got := RenderTable([]string{"name", "value"}, [][]string{
		{"foo", "1"},
		{"barbaz", "22"},
	})
	want := "" +
		"┌────────┬───────┐\n" +
		"│ name   │ value │\n" +
		"├────────┼───────┤\n" +
		"│ foo    │ 1     │\n" +
		"│ barbaz │ 22    │\n" +
		"└────────┴───────┘\n"
	if got != want {
		t.Errorf("table:\n%s\nwant:\n%s", got, want)
	}
}

func TestRenderTableRaggedRows(t *testing.T) {
	got := RenderTable([]string{"a", "b"}, [][]string{
		{"1"},           // short row padded
		{"2", "3", "4"}, // long row truncated
	})
	want := "" +
		"┌───┬───┐\n" +
		"│ a │ b │\n" +
		"├───┼───┤\n" +
		"│ 1 │   │\n" +
		"│ 2 │ 3 │\n" +
		"└───┴───┘\n"
	if got != want {
		t.Errorf("table:\n%s\nwant:\n%s", got, want)
	}
}

func TestRenderTableEmpty(t *testing.T) {
	if got := RenderTable(nil, nil); got != "" {
		t.Errorf("empty table = %q", got)
	}
}

func TestPhaseTableGolden(t *testing.T) {
	b := PhaseBreakdown{}
	b.Add(PhaseTraining, PhaseTotals{Count: 3, Steps: 30})
	b.Add(PhaseCommitment, PhaseTotals{Count: 3, Bytes: 4096})
	b.Add("custom", PhaseTotals{Count: 1})
	got := PhaseTable(b)
	// Protocol order puts training before commitment; unknown phases trail.
	want := "" +
		"┌────────────┬───────┬───────┬───────┐\n" +
		"│ phase      │ count │ bytes │ steps │\n" +
		"├────────────┼───────┼───────┼───────┤\n" +
		"│ training   │ 3     │ 0     │ 30    │\n" +
		"│ commitment │ 3     │ 4096  │ 0     │\n" +
		"│ custom     │ 1     │ 0     │ 0     │\n" +
		"└────────────┴───────┴───────┴───────┘\n"
	if got != want {
		t.Errorf("phase table:\n%s\nwant:\n%s", got, want)
	}
}

func TestMetricsTableGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("pool_epochs_total").Add(2)
	r.Gauge("rpol_alpha").Set(0.5)
	r.Histogram("rpol_repro_error", []float64{1}).Observe(0.25)
	got := MetricsTable(r.Snapshot())
	// The single 0.25 observation sits in the [0, 1] bucket, so the
	// interpolated quantile estimates are the ranks themselves: p50 = 0.5,
	// p95 = 0.95, p99 = 0.99.
	want := "" +
		"┌───────────┬───────────────────┬──────────────────────────────────────────────────────────┐\n" +
		"│ kind      │ metric            │ value                                                    │\n" +
		"├───────────┼───────────────────┼──────────────────────────────────────────────────────────┤\n" +
		"│ counter   │ pool_epochs_total │ 2                                                        │\n" +
		"│ gauge     │ rpol_alpha        │ 0.5                                                      │\n" +
		"│ histogram │ rpol_repro_error  │ count=1 sum=0.25 p50=0.5 p95=0.95 p99=0.99 le1=1 leInf=0 │\n" +
		"└───────────┴───────────────────┴──────────────────────────────────────────────────────────┘\n"
	if got != want {
		t.Errorf("metrics table:\n%s\nwant:\n%s", got, want)
	}
}

func TestPhaseBreakdownMergeClone(t *testing.T) {
	a := PhaseBreakdown{}
	a.Add(PhaseTraining, PhaseTotals{Count: 1, Steps: 10})
	b := a.Clone()
	b.Add(PhaseTraining, PhaseTotals{Count: 1, Steps: 10})
	if a[PhaseTraining].Count != 1 {
		t.Error("Clone is not independent")
	}
	a.Merge(b)
	if got := a[PhaseTraining]; got.Count != 3 || got.Steps != 30 {
		t.Errorf("merged totals = %+v", got)
	}
}
