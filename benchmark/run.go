package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"rpol/internal/obs"
	"rpol/internal/tensor"
)

// runConfig is one invocation: a workload, a seed, a time budget, and whether
// this is the traced run.
type runConfig struct {
	W       workload
	Seed    int64
	Seconds float64
	Trace   bool
	// Tasks and Epochs, when non-zero, fix the run's size instead of the time
	// budget (the smoke test runs 1 task × 2 epochs).
	Tasks  int
	Epochs int
	Replay replayScale
	// Dump, when set, receives the traced run's spans as JSON lines.
	Dump string
}

// runResult is what an invocation reports.
type runResult struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Problems  []string
	Notes     []string
}

// taskLoop runs tasks until the budget is spent: a task starts only while the
// time used so far plus the longest task seen fits in the budget.
func taskLoop(cfg runConfig, clock obs.Clock, budgetNs int64, body func(task int) error) error {
	var longest int64
	for task := 0; ; task++ {
		if cfg.Tasks > 0 && task >= cfg.Tasks {
			return nil
		}
		if cfg.Tasks == 0 && task > 0 && clock.Now()+longest > budgetNs {
			return nil
		}
		t0 := clock.Now()
		if err := body(task); err != nil {
			return err
		}
		longest = max(longest, clock.Now()-t0)
	}
}

func (cfg runConfig) epochs() int {
	if cfg.Epochs > 0 {
		return cfg.Epochs
	}
	return epochsPerTask
}

// run executes one invocation.
func run(cfg runConfig) (*runResult, error) {
	clock := obs.NewWallClock()
	res := &runResult{Metrics: make(map[string]float64)}
	if cfg.W.Durable {
		if err := os.MkdirAll(journalRoot, 0o755); err != nil {
			return nil, err
		}
		fs := fsTypeOf(journalRoot)
		res.Notes = append(res.Notes, "journal fs: "+fs)
		if fs == "tmpfs" {
			res.Notes = append(res.Notes, "WARNING: journal directory is on tmpfs; fsync costs nothing there and durable timings do not describe a disk")
		}
	}
	var err error
	if cfg.Trace {
		err = runTraced(cfg, clock, res)
	} else {
		err = runEndToEnd(cfg, clock, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// tally accumulates task results into the run's totals.
type tally struct {
	tasks    []*taskResult
	epochS   []float64
	setupS   []float64
	resumeS  []float64
	accuracy []float64
	total    taskResult
}

func (t *tally) add(r *taskResult) {
	t.tasks = append(t.tasks, r)
	for _, ns := range r.EpochNs {
		t.epochS = append(t.epochS, float64(ns)/1e9)
	}
	t.setupS = append(t.setupS, float64(r.SetupNs)/1e9)
	if r.ResumeNs > 0 {
		t.resumeS = append(t.resumeS, float64(r.ResumeNs)/1e9)
	}
	t.accuracy = append(t.accuracy, r.Accuracy)
	a := &t.total
	a.Submissions += r.Submissions
	a.Verdicts += r.Verdicts
	a.AdvSubs += r.AdvSubs
	a.AdvRejected += r.AdvRejected
	a.Attempted += r.Attempted
	a.Failed += r.Failed
	a.Sampled += r.Sampled
	a.ReexecSteps += r.ReexecSteps
	a.LSHMisses += r.LSHMisses
	a.DoubleChks += r.DoubleChks
	a.WireBytes += r.WireBytes
	a.WireMsgs += r.WireMsgs
	a.VerifyBytes += r.VerifyBytes
	a.CkptBytes += r.CkptBytes
	a.AllocBytes += r.AllocBytes
	a.FS.BytesWritten += r.FS.BytesWritten
	a.FS.Fsyncs += r.FS.Fsyncs
	a.FS.JournalRecords += r.FS.JournalRecords
	a.FS.JournalBytes += r.FS.JournalBytes
	if a.ByKind == nil {
		a.ByKind = make(map[string]int64)
	}
	for k, v := range r.ByKind {
		a.ByKind[k] += v
	}
	a.Problems = append(a.Problems, r.Problems...)
}

// check applies the output checks that do not need a second run.
func (t *tally) check(res *runResult) {
	res.Attempted += t.total.Attempted
	res.Failed += t.total.Failed
	res.Problems = append(res.Problems, t.total.Problems...)
	for i, r := range t.tasks {
		if r.Accuracy < 2*r.Chance {
			res.Problems = append(res.Problems,
				fmt.Sprintf("task %d: final accuracy %.3f is below twice the chance level %.3f", i, r.Accuracy, r.Chance))
		}
	}
	if len(t.epochS) == 0 {
		res.Problems = append(res.Problems, "no epoch completed")
	}
}

// setupRepeats is how many extra times each task's pool is built and torn
// down, without running an epoch, for setup_s.
const setupRepeats = 4

// runEndToEnd is the untraced run: the program as a user assembles it, timed
// from outside.
func runEndToEnd(cfg runConfig, clock obs.Clock, res *runResult) error {
	var t tally
	err := taskLoop(cfg, clock, int64(cfg.Seconds*1e9), func(task int) error {
		r, err := runTask(cfg.W, cfg.Seed, task, cfg.epochs(), clock, nil)
		if err != nil {
			return err
		}
		t.add(r)
		// Set-up takes milliseconds, so each task's is repeated to give
		// setup_s a median over enough samples to hold still.
		for i := 0; i < setupRepeats; i++ {
			again, err := runTask(cfg.W, cfg.Seed, task, 0, clock, nil)
			if err != nil {
				return err
			}
			t.setupS = append(t.setupS, float64(again.SetupNs)/1e9)
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.check(res)
	epochs := float64(len(t.epochS))
	sorted := sortedCopy(t.epochS)
	m := res.Metrics
	m["setup_s"] = median(t.setupS)
	m["epoch_s_p50"] = quantile(sorted, 0.50)
	m["submissions_per_s"] = ratio(float64(t.total.Verdicts), sum(t.epochS))
	m["io_bytes_per_epoch"] = ratio(float64(t.total.WireBytes+t.total.FS.BytesWritten), epochs)
	m["alloc_mb_per_epoch"] = ratio(float64(t.total.AllocBytes)/1e6, epochs)
	m["adv_detect_rate"] = ratio(float64(t.total.AdvRejected), float64(t.total.AdvSubs))
	m["final_accuracy"] = mean(t.accuracy)
	tail := supportedTail(len(sorted))
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d tasks, %d epochs, %d set-ups; p90 = %.4f s; highest percentile with ten samples beyond it: p%d = %.4f s",
			len(t.tasks), len(sorted), len(t.setupS), quantile(sorted, 0.90), tail, quantile(sorted, float64(tail)/100)),
		fmt.Sprintf("ops_attempted=%d ops_failed=%d", res.Attempted, res.Failed))
	return nil
}

// pairShare is the part of a traced run's budget spent on task pairs; the
// layer replay, sized by call counts, takes one to three seconds after it.
const pairShare = 0.85

// runTraced is the traced run. Each task runs twice from the same seed, bare
// and then decorated: the pair must agree on every count and on the final
// global model (tracing stays passive), and their epoch times give the
// tracing overhead. The layer replay gets the rest of the budget.
func runTraced(cfg runConfig, clock obs.Clock, res *runResult) error {
	tr := newTracer(clock)
	var bare, traced tally
	err := taskLoop(cfg, clock, int64(cfg.Seconds*pairShare*1e9), func(task int) error {
		b, err := runTask(cfg.W, cfg.Seed, task, cfg.epochs(), clock, nil)
		if err != nil {
			return err
		}
		t, err := runTask(cfg.W, cfg.Seed, task, cfg.epochs(), clock, tr)
		if err != nil {
			return err
		}
		bare.add(b)
		traced.add(t)
		if bc, tc := b.counts(), t.counts(); bc != tc {
			res.Problems = append(res.Problems,
				fmt.Sprintf("task %d: tracing changed the run\n  untraced %s\n  traced   %s", task, bc, tc))
		}
		return nil
	})
	if err != nil {
		return err
	}
	traced.check(res)
	spans := tr.snapshot()
	if cfg.Dump != "" {
		if err := dumpSpans(cfg.Dump, cfg.W.Name, spans); err != nil {
			return err
		}
	}
	replay, err := replayLayers(cfg.W, cfg.Seed, clock, cfg.Replay)
	if err != nil {
		return err
	}
	m := res.Metrics
	for _, d := range perLayer {
		m[d.Name] = replay[d.Name] // replayed entries; the rest are filled in below
	}
	layerMetrics(cfg.W, &traced, spans, m)
	m["trace.overhead"] = ratio(median(traced.epochS), median(bare.epochS)) - 1
	m["runtime.peak_rss_mb"] = peakRSSMB()
	if c := m["trace.coverage"]; c < 0.99 || c > 1.01 {
		res.Problems = append(res.Problems, fmt.Sprintf("trace.coverage = %.4f, want 1 ± 0.01", c))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d task pairs, %d traced epochs, %d spans", len(traced.tasks), len(traced.epochS), len(spans)),
		fmt.Sprintf("closure: trace.overhead %+.3f, trace.coverage %.4f (must be 1 ± 0.01), replay.coverage.worker %.3f, replay.coverage.manager %.3f (target 1 ± 0.15, reported as found)",
			m["trace.overhead"], m["trace.coverage"], m["replay.coverage.worker"], m["replay.coverage.manager"]))
	return nil
}

// layerMetrics fills the span- and count-derived per-layer metrics.
func layerMetrics(w workload, t *tally, spans []span, m map[string]float64) {
	self := selfTimes(spans)
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	// Per-name totals, in seconds.
	durBy := make(map[string][]float64)
	selfBy := make(map[string][]float64)
	for i, s := range spans {
		key := s.Name
		durBy[key] = append(durBy[key], float64(s.dur())/1e9)
		selfBy[key] = append(selfBy[key], float64(self[i])/1e9)
		if s.File != "" {
			key += "/" + s.File
			durBy[key] = append(durBy[key], float64(s.dur())/1e9)
		}
	}
	epochWall := sum(durBy[spanEpoch])
	epochs := float64(len(durBy[spanEpoch]))
	verdicts := float64(t.total.Verdicts)
	subs := float64(t.total.Submissions)

	// Manager phases: where the collection calls sit inside each epoch.
	var calibrate, collect, verify, honestRun, honestSelf []float64
	for i, s := range spans {
		switch s.Name {
		case spanEpoch:
			first, last, opens := int64(-1), int64(-1), int64(0)
			for _, k := range children[i] {
				switch spans[k].Name {
				case spanRemoteRun:
					if first < 0 {
						first = spans[k].Start
					}
					last = spans[k].End
				case spanRemoteOpen, spanRemoteProof:
					opens += spans[k].dur()
				}
			}
			if first >= 0 {
				calibrate = append(calibrate, float64(first-s.Start)/1e9)
				collect = append(collect, float64(last-first)/1e9)
				verify = append(verify, float64(s.End-last-opens)/1e9)
			}
		case spanWorkerRun:
			if strings.HasPrefix(s.Worker, "worker-") {
				honestRun = append(honestRun, float64(s.dur())/1e9)
				honestSelf = append(honestSelf, float64(self[i])/1e9)
			}
		}
	}
	m["rpol.manager.calibrate_s"] = mean(calibrate)
	m["rpol.manager.collect_s"] = mean(collect)
	m["rpol.manager.verify_s"] = mean(verify)
	m["rpol.manager.verify_share"] = ratio(sum(calibrate)+sum(verify), epochWall)
	m["rpol.worker.run_epoch_s"] = mean(honestRun)
	m["wire.run_epoch_overhead_s"] = mean(selfBy[spanRemoteRun])
	m["wire.open_checkpoint_overhead_us"] = mean(selfBy[spanRemoteOpen]) * 1e6
	m["wire.open_proof_overhead_us"] = mean(selfBy[spanRemoteProof]) * 1e6
	m["rpol.verifier.open_checkpoints_per_submission"] = ratio(float64(len(durBy[spanRemoteOpen])), verdicts)
	m["rpol.verifier.open_proofs_per_submission"] = ratio(float64(len(durBy[spanRemoteProof])), verdicts)
	m["rpol.verifier.reexec_steps_per_submission"] = ratio(float64(t.total.ReexecSteps), verdicts)
	m["rpol.verifier.double_checks_per_submission"] = ratio(float64(t.total.DoubleChks), verdicts)
	m["rpol.verifier.lsh_miss_rate"] = ratio(float64(t.total.LSHMisses), float64(t.total.Sampled))
	if len(t.tasks) > 0 {
		vectorBytes := float64(tensor.EncodedSize(t.tasks[0].ModelDim))
		m["rpol.verifier.vectors_opened_per_sample"] = ratio(float64(t.total.VerifyBytes), verdicts*float64(w.Samples)*vectorBytes)
	}
	m["rpol.failed_share"] = ratio(float64(t.total.Failed), float64(t.total.Attempted))

	if w.Durable {
		m["checkpoint.put_us"] = mean(durBy[spanFSWriteAtomic+"/"+fileCheckpoint]) * 1e6
		m["checkpoint.get_us"] = mean(durBy[spanFSRead+"/"+fileCheckpoint]) * 1e6
	} else {
		m["checkpoint.put_us"] = mean(durBy[spanStorePut]) * 1e6
		m["checkpoint.get_us"] = mean(durBy[spanStoreGet]) * 1e6
	}
	m["checkpoint.bytes_per_epoch"] = ratio(float64(t.total.CkptBytes), epochs)
	m["fsio.write_atomic_us"] = mean(durBy[spanFSWriteAtomic]) * 1e6
	m["fsio.append_sync_us"] = mean(durBy[spanFSAppendSync]) * 1e6
	m["fsio.fsyncs_per_epoch"] = ratio(float64(t.total.FS.Fsyncs), epochs)
	m["fsio.bytes_per_epoch"] = ratio(float64(t.total.FS.BytesWritten), epochs)
	m["fsio.self_share"] = ratio(sum(durBy[spanFSWriteAtomic])+sum(durBy[spanFSAppendSync])+sum(durBy[spanFSRead]), epochWall)
	m["journal.records_per_epoch"] = ratio(float64(t.total.FS.JournalRecords), epochs)
	m["journal.bytes_per_epoch"] = ratio(float64(t.total.FS.JournalBytes), epochs)
	m["journal.resume_s"] = mean(t.resumeS)
	m["pool.run_epoch_self_s"] = mean(selfBy[spanEpoch])

	m["netsim.bytes_per_epoch"] = ratio(float64(t.total.WireBytes), epochs)
	m["netsim.msgs_per_submission"] = ratio(float64(t.total.WireMsgs), subs)
	m["netsim.verify_bytes_per_submission"] = ratio(float64(t.total.VerifyBytes), verdicts)
	m["netsim.commit_bytes_per_submission"] = ratio(float64(t.total.ByKind["result"]), subs)
	for _, kind := range []string{"task", "result", "open-request", "open-response", "proof-request", "proof-response"} {
		m["netsim.bytes."+kind] = ratio(float64(t.total.ByKind[kind]), epochs)
	}
	m["epoch.samples"] = epochs
	sortedEpochs := sortedCopy(durBy[spanEpoch])
	m["epoch.p50_s"] = quantile(sortedEpochs, 0.50)
	m["epoch.p90_s"] = quantile(sortedEpochs, 0.90)

	var selfTotal float64
	for _, ns := range self {
		selfTotal += float64(ns) / 1e9
	}
	m["trace.coverage"] = ratio(selfTotal, epochWall)
	m["replay.coverage.worker"] = ratio(
		m["rpol.trainer.run_epoch_s"]+m["rpol.commit.commit_trace_us"]/1e6, mean(honestSelf))
	m["replay.coverage.manager"] = ratio(
		m["rpol.calibrator.calibrate_s"]+float64(w.Workers)*m["rpol.verifier.verify_submission_us"]/1e6,
		mean(calibrate)+mean(verify))
}

// peakRSSMB reads the process's peak resident set from /proc (0 elsewhere).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1e3
		}
	}
	return 0
}
