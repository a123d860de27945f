package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rpol/internal/obs"
	"rpol/internal/obshttp"
)

// cannedModel is a fixed frame covering every dashboard section.
func cannedModel() *model {
	reg := obs.NewRegistry()
	reg.Counter("pool_epochs_total").Add(3)
	reg.Counter("rpol_accepted_total").Add(12)
	reg.Counter("rpol_rejected_total").Add(2)
	reg.Counter("rpol_absent_total").Add(1)
	reg.Counter("pool_detected_adversaries_total").Add(2)
	reg.Counter("net_tcp_bytes_total").Add(4096)
	reg.Counter("net_retries_total").Add(4)
	reg.Counter("journal_records_total").Add(21)
	reg.Gauge("pool_test_accuracy").Set(0.8125)

	m := &model{
		source:      "localhost:7070",
		seq:         5,
		snap:        reg.Snapshot(),
		intervalSec: 2,
		delta: obs.Delta{
			Counters: map[string]int64{
				"pool_epochs_total":   1,
				"rpol_accepted_total": 5,
				"net_tcp_bytes_total": 1024,
			},
		},
		health: &obshttp.HealthResponse{Healthy: true, Epochs: 3, AgeNS: int64(1500 * time.Millisecond)},
	}
	m.applyEvents([]obs.StreamEvent{
		{Seq: 40, Kind: obs.EventVerdictAccepted, Worker: "worker-00", Epoch: 2},
		{Seq: 41, Kind: obs.EventVerdictRejected, Worker: "adv1-00", Epoch: 2, Detail: "digest mismatch"},
		{Seq: 42, Kind: obs.EventWorkerAbsent, Worker: "worker-01", Epoch: 2, Detail: "absent: worker down"},
		{Seq: 43, Kind: obs.EventEpochSealed, Epoch: 2, Detail: "accuracy=0.8125 accepted=12 rejected=2 absent=1"},
	}, 0)
	return m
}

func TestRenderGolden(t *testing.T) {
	got := render(cannedModel())
	want := "" +
		"rpoltop — localhost:7070  seq=5  health=OK epochs=3 age=1.5s  accuracy=0.8125\n" +
		"\n" +
		"┌──────────────────────┬───────┬───────┐\n" +
		"│ pool                 │ total │ rate  │\n" +
		"├──────────────────────┼───────┼───────┤\n" +
		"│ epochs sealed        │ 3     │ 0.5/s │\n" +
		"│ verdicts accepted    │ 12    │ 2.5/s │\n" +
		"│ verdicts rejected    │ 2     │ -     │\n" +
		"│ workers absent       │ 1     │ -     │\n" +
		"│ adversaries detected │ 2     │ -     │\n" +
		"│ adversaries missed   │ 0     │ -     │\n" +
		"│ false rejections     │ 0     │ -     │\n" +
		"└──────────────────────┴───────┴───────┘\n" +
		"\n" +
		"┌───────────┬──────────┬──────────┬────────┬───────┐\n" +
		"│ worker    │ accepted │ rejected │ absent │ epoch │\n" +
		"├───────────┼──────────┼──────────┼────────┼───────┤\n" +
		"│ adv1-00   │ 0        │ 1        │ 0      │ 2     │\n" +
		"│ worker-00 │ 1        │ 0        │ 0      │ 2     │\n" +
		"│ worker-01 │ 0        │ 0        │ 1      │ 2     │\n" +
		"└───────────┴──────────┴──────────┴────────┴───────┘\n" +
		"\n" +
		"┌───────────────────────┬───────┬───────┐\n" +
		"│ net / journal         │ total │ rate  │\n" +
		"├───────────────────────┼───────┼───────┤\n" +
		"│ journal_records_total │ 21    │ -     │\n" +
		"│ net_retries_total     │ 4     │ -     │\n" +
		"│ net_tcp_bytes_total   │ 4096  │ 512/s │\n" +
		"└───────────────────────┴───────┴───────┘\n" +
		"\n" +
		"events:\n" +
		"  [40] verdict_accepted worker-00 epoch=2\n" +
		"  [41] verdict_rejected adv1-00 epoch=2 (digest mismatch)\n" +
		"  [42] worker_absent worker-01 epoch=2 (absent: worker down)\n" +
		"  [43] epoch_sealed epoch=2 (accuracy=0.8125 accepted=12 rejected=2 absent=1)\n"
	if got != want {
		t.Errorf("frame:\n%s\nwant:\n%s", got, want)
	}
}

func TestApplyEventsTailBounded(t *testing.T) {
	m := &model{}
	evs := make([]obs.StreamEvent, tailLen+5)
	for i := range evs {
		evs[i] = obs.StreamEvent{Seq: uint64(i + 1), Kind: obs.EventEpochSealed, Epoch: int64(i)}
	}
	m.applyEvents(evs, 3)
	if len(m.tail) != tailLen {
		t.Errorf("tail length = %d, want %d", len(m.tail), tailLen)
	}
	if m.tail[0].Seq != uint64(5+1) || m.dropped != 3 {
		t.Errorf("tail head seq = %d, dropped = %d", m.tail[0].Seq, m.dropped)
	}
}

// TestRunOnceAgainstLiveServer drives the full pipeline: an obshttp server
// over a populated observer, one -once refresh, and a frame that carries
// the served data.
func TestRunOnceAgainstLiveServer(t *testing.T) {
	reg := obs.NewRegistry()
	o := obs.NewObserver(reg, nil)
	events := obs.NewEvents(64, nil)
	events.Observe(reg)
	o.AttachEvents(events)
	o.Counter("pool_epochs_total").Add(2)
	o.Gauge("pool_test_accuracy").Set(0.75)
	o.Publish(obs.StreamEvent{Kind: obs.EventEpochSealed, Epoch: 1, Detail: "accuracy=0.7500"})

	srv, err := obshttp.Serve("localhost:0", obshttp.NewServer(obshttp.Config{Observer: o}).Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Shutdown(time.Second) }()

	var out strings.Builder
	if err := run(srv.Addr, time.Second, true, "", &out); err != nil {
		t.Fatal(err)
	}
	frame := out.String()
	for _, want := range []string{
		"rpoltop — " + srv.Addr,
		"health=OK",
		"epochs sealed        │ 2",
		"accuracy=0.7500",
		"[1] epoch_sealed epoch=1",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
}

func TestRunOfflineFile(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("pool_epochs_total").Add(7)
	reg.Gauge("pool_test_accuracy").Set(0.5)
	data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run("", 0, true, path, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "epochs sealed        │ 7") ||
		!strings.Contains(out.String(), "accuracy=0.5000") {
		t.Errorf("offline frame:\n%s", out.String())
	}
}

func TestRunRequiresSource(t *testing.T) {
	if err := run("", 0, true, "", &strings.Builder{}); err == nil {
		t.Error("no -addr and no -file accepted")
	}
}
