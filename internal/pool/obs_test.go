package pool

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rpol/internal/journal"
	"rpol/internal/netsim"
	"rpol/internal/obs"
	"rpol/internal/rpol"
)

// runEpochs runs a fresh pool from cfg for n epochs and returns the stats.
func runEpochs(t *testing.T, cfg Config, n int) []*EpochStats {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*EpochStats, n)
	for i := range out {
		s, err := p.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// TestInstrumentationPreservesDeterminism is the observability layer's core
// contract: a fully instrumented same-seed run must yield byte-identical
// protocol results to an uninstrumented one. Metrics, spans, and the
// simulated clock may consume no protocol randomness and perturb no state.
func TestInstrumentationPreservesDeterminism(t *testing.T) {
	cfg := baseConfig(rpol.SchemeV2)
	cfg.NumWorkers = 6
	cfg.Adv1Fraction = 0.34
	cfg.Adv2Fraction = 0.34

	plain := runEpochs(t, cfg, 2)

	instrumented := cfg
	var trace bytes.Buffer
	reg := obs.NewRegistry()
	instrumented.Obs = obs.NewObserver(reg, obs.NewTracer(&trace, nil))
	traced := runEpochs(t, instrumented, 2)

	for i := range plain {
		a, b := plain[i], traced[i]
		if a.Epoch != b.Epoch || a.TestAccuracy != b.TestAccuracy ||
			a.Accepted != b.Accepted || a.Rejected != b.Rejected ||
			a.DetectedAdversaries != b.DetectedAdversaries ||
			a.MissedAdversaries != b.MissedAdversaries ||
			a.FalseRejections != b.FalseRejections ||
			a.VerifyCommBytes != b.VerifyCommBytes ||
			a.ReexecSteps != b.ReexecSteps {
			t.Errorf("epoch %d: instrumented stats diverged\nplain: %+v\ntraced: %+v", i, a, b)
		}
	}
	// And the instrumentation must actually have recorded something.
	if snap := reg.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) == 0 {
		t.Error("instrumented run recorded no metrics")
	}
	if trace.Len() == 0 {
		t.Error("instrumented run emitted no trace")
	}
}

// TestEpochPhaseBreakdown checks that an instrumented epoch reports costs
// for the pipeline's load-bearing phases.
func TestEpochPhaseBreakdown(t *testing.T) {
	cfg := baseConfig(rpol.SchemeV2)
	cfg.Obs = obs.NewObserver(obs.NewRegistry(), nil)
	stats := runEpochs(t, cfg, 1)[0]
	if stats.Phases == nil {
		t.Fatal("epoch stats carry no phase breakdown")
	}
	for _, phase := range []string{
		obs.PhaseTaskPublish, obs.PhaseTraining, obs.PhaseCommitment,
		obs.PhaseChallenge, obs.PhaseReproduction, obs.PhaseVerdict,
		obs.PhaseAggregation, obs.PhaseSettlement,
	} {
		if stats.Phases[phase].Count == 0 {
			t.Errorf("phase %q has zero count: %+v", phase, stats.Phases[phase])
		}
	}
	if stats.Phases[obs.PhaseCommitment].Bytes == 0 {
		t.Error("commitment phase reports no bytes")
	}
	// Every worker submits; the manager sees submissions, never the steps
	// behind them, and counts none.
	want := obs.PhaseTotals{Count: int64(cfg.NumWorkers)}
	if got := stats.Phases[obs.PhaseTraining]; got != want {
		t.Errorf("training phase = %+v, want %+v", got, want)
	}
}

// TestTraceSpansNest checks the acceptance criterion that trace spans nest
// manager → worker → verify.
func TestTraceSpansNest(t *testing.T) {
	cfg := baseConfig(rpol.SchemeV2)
	var trace bytes.Buffer
	cfg.Obs = obs.NewObserver(nil, obs.NewTracer(&trace, nil))
	runEpochs(t, cfg, 1)

	events, err := obs.ReadEvents(&trace)
	if err != nil {
		t.Fatal(err)
	}
	tree := obs.BuildSpanTree(events)
	verifies := tree.SpansNamed("verify.submission")
	if len(verifies) != cfg.NumWorkers {
		t.Fatalf("got %d verify.submission spans, want %d", len(verifies), cfg.NumWorkers)
	}
	for _, id := range verifies {
		anc := tree.Ancestry(id)
		var hasWorker, hasEpoch bool
		for _, name := range anc {
			if name == "worker.epoch" {
				hasWorker = true
			}
			if name == "manager.epoch" {
				hasEpoch = true
			}
		}
		if !hasWorker || !hasEpoch {
			t.Errorf("verify.submission ancestry = %v, want worker.epoch and manager.epoch above it", anc)
		}
	}
	// Worker-side training and verifier-side reproduction also appear.
	if len(tree.SpansNamed("worker.train")) == 0 {
		t.Error("no worker.train spans")
	}
	if len(tree.SpansNamed("verify.reproduce")) == 0 {
		t.Error("no verify.reproduce spans")
	}
}

// TestCountersMatchTheRecord holds every metric a seeded, journaled,
// faulted pool run reaches to the run's own record: the summed EpochStats,
// their phase breakdowns and the journal read back. The set of names the
// run registers is closed: a counter this test does not derive fails it.
func TestCountersMatchTheRecord(t *testing.T) {
	const epochs = 4
	dir := t.TempDir()
	cfg := journaledConfig(dir, nil)
	cfg.NumWorkers = 6
	cfg.Adv1Fraction, cfg.Adv2Fraction = 1.0/6, 1.0/6
	cfg.Faults = netsim.NewFaultPlan(17, netsim.DefaultFaultConfig())
	reg := obs.NewRegistry()
	cfg.Obs = obs.NewObserver(reg, nil)
	events := obs.NewEvents(0, nil)
	cfg.Obs.AttachEvents(events)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum EpochStats
	sum.Phases = obs.PhaseBreakdown{}
	var probes, honestLive int64
	var last *EpochStats
	for range epochs {
		s, err := p.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		sum.Accepted += s.Accepted
		sum.Rejected += s.Rejected
		sum.AbsentWorkers += s.AbsentWorkers
		sum.DetectedAdversaries += s.DetectedAdversaries
		sum.MissedAdversaries += s.MissedAdversaries
		sum.FalseRejections += s.FalseRejections
		sum.VerifyCommBytes += s.VerifyCommBytes
		sum.ReexecSteps += s.ReexecSteps
		sum.Phases.Merge(s.Phases)
		probes += int64(s.Calibration.NumProbes)
		// Only honest workers count their training; every one that answered
		// was accepted or falsely rejected.
		honestLive += int64(s.Accepted - s.MissedAdversaries + s.FalseRejections)
		last = s
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "epoch.wal"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := journal.Recover(data)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Accepted == 0 || sum.Rejected == 0 || sum.AbsentWorkers == 0 || sum.Phases[obs.PhaseLSH].Count == 0 {
		t.Fatalf("the run reaches too little to check: %+v", sum)
	}

	ph := sum.Phases
	// The training row counts every live submission — each one accepted or
	// rejected — and no steps: an Adv1 submits without training, so the
	// only step count is the honest workers' own counter below.
	if want := (obs.PhaseTotals{Count: int64(sum.Accepted + sum.Rejected)}); ph[obs.PhaseTraining] != want {
		t.Errorf("Phases[training] = %+v, the run's record says %+v", ph[obs.PhaseTraining], want)
	}
	// Under v2 every committed checkpoint carries a digest, the global
	// model's included (journaledConfig's interval divides its steps).
	digests := int64(cfg.StepsPerEpoch/cfg.CheckpointEvery + 1)
	counters := map[string]int64{
		"rpol_challenges_total":           ph[obs.PhaseChallenge].Count,
		"rpol_reexec_steps_total":         int64(sum.ReexecSteps),
		"rpol_verify_comm_bytes_total":    sum.VerifyCommBytes,
		"rpol_lsh_misses_total":           ph[obs.PhaseLSH].Count,
		"rpol_accepted_total":             int64(sum.Accepted),
		"rpol_rejected_total":             int64(sum.Rejected),
		"rpol_absent_total":               int64(sum.AbsentWorkers),
		"pool_epochs_total":               epochs,
		"pool_detected_adversaries_total": int64(sum.DetectedAdversaries),
		"pool_missed_adversaries_total":   int64(sum.MissedAdversaries),
		"pool_false_rejections_total":     int64(sum.FalseRejections),
		"journal_records_total":           int64(len(rec.Records)),
		"rpol_calibrations_total":         ph[obs.PhaseCalibration].Count,
		"rpol_probe_steps_total":          ph[obs.PhaseCalibration].Steps,
		"rpol_train_steps_total":          honestLive * int64(cfg.StepsPerEpoch),
		"rpol_commitments_total":          honestLive,
		"rpol_lsh_digests_total":          honestLive * digests,
		// A miss is always double-checked here: every opening is served.
		"rpol_double_checks_total": ph[obs.PhaseLSH].Count,
	}
	snap := reg.Snapshot()
	for name, want := range counters {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (registered %v), the run's record says %d", name, got, ok, want)
		}
	}
	// Compares fall between the misses and the replayed intervals: a
	// replay stops at its first failing interval.
	compares := snap.Counters["rpol_lsh_compares_total"]
	if compares < ph[obs.PhaseLSH].Count || compares > ph[obs.PhaseReproduction].Count {
		t.Errorf("rpol_lsh_compares_total = %d, want within [%d, %d]", compares, ph[obs.PhaseLSH].Count, ph[obs.PhaseReproduction].Count)
	}
	for name := range snap.Counters {
		if _, ok := counters[name]; !ok && name != "rpol_lsh_compares_total" {
			t.Errorf("the run registers counter %s, which this test does not derive", name)
		}
	}
	gauges := map[string]float64{
		"rpol_alpha":         last.Calibration.Alpha,
		"rpol_beta":          last.Calibration.Beta,
		"pool_test_accuracy": last.TestAccuracy,
	}
	if len(snap.Gauges) != len(gauges) {
		t.Errorf("the run registers gauges %v, want %v", snap.Gauges, gauges)
	}
	for name, want := range gauges {
		if got := snap.Gauges[name]; got != want {
			t.Errorf("%s = %v, the last epoch says %v", name, got, want)
		}
	}
	if h, ok := snap.Histograms["rpol_repro_error"]; !ok || len(snap.Histograms) != 1 || h.Count != probes {
		t.Errorf("rpol_repro_error holds %d observations (of %d histograms), the calibrations measured %d", h.Count, len(snap.Histograms), probes)
	}

	// The event log tells the same story, one event per verdict and epoch.
	kinds := map[string]int64{}
	evs, _, dropped := events.Since(0)
	if dropped != 0 {
		t.Fatalf("the event log dropped %d events", dropped)
	}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	for kind, want := range map[string]int64{
		obs.EventVerdictAccepted: int64(sum.Accepted),
		obs.EventVerdictRejected: int64(sum.Rejected),
		obs.EventWorkerAbsent:    int64(sum.AbsentWorkers),
		obs.EventEpochSealed:     epochs,
	} {
		if kinds[kind] != want {
			t.Errorf("%d %s events, the run's record says %d", kinds[kind], kind, want)
		}
	}
}
