package rpol

import (
	"errors"
	"fmt"
	"sync"

	"rpol/internal/commitment"
	"rpol/internal/dataset"
	"rpol/internal/fsio"
	"rpol/internal/gpu"
	"rpol/internal/journal"
	"rpol/internal/nn"
	"rpol/internal/obs"
	"rpol/internal/prf"
	"rpol/internal/tensor"
)

// ManagerConfig assembles a pool manager.
type ManagerConfig struct {
	// Address is the manager's blockchain address (encoded into the
	// AMLayer by the caller before the architecture reaches here).
	Address string
	// Scheme selects baseline / RPoLv1 / RPoLv2.
	Scheme Scheme
	// Hyper are the training hyper-parameters distributed each epoch.
	Hyper Hyper
	// StepsPerEpoch is each worker's per-epoch training step count.
	StepsPerEpoch int
	// CheckpointEvery is the checkpoint interval i (5 in the evaluation).
	CheckpointEvery int
	// Samples is q, sampled checkpoints per submission (3 in the
	// evaluation; 0 takes that default, a negative count is refused).
	Samples int
	// GPU is the manager's own verification hardware.
	GPU gpu.Profile
	// MasterKey derives per-(worker, epoch) nonces and, through a
	// domain-separated subkey, each submission's challenge. It must be
	// secret: a worker holding it could grind its commitment until the
	// challenge misses a forged interval.
	MasterKey []byte
	// Seed drives the manager's own randomness: its verification device
	// and, per epoch, the seeds of the calibration probes and the LSH
	// family, each a pure function of (Seed, label, epoch).
	Seed int64
	// ConcurrentCollection trains workers concurrently during the
	// collection phase. Each worker must be safe to drive beside the others:
	// in-process workers own their network and trainer, and remote workers
	// sharing one wire.ManagerPort each receive on a queue of their own.
	ConcurrentCollection bool
	// Journal, when set, makes the manager log every protocol transition
	// (task announced, commitment received, verdict recorded) to the
	// durable epoch journal. It changes only what is written, never an
	// outcome: every draw of an epoch is a pure function of the
	// configuration, the epoch and the commitments, so a resumed run
	// re-enters any epoch with the randomness the uninterrupted one had.
	// Records are synced once per phase, at the point where the manager
	// acts on them: the task before the first worker is called, the
	// commitments before the first challenge is drawn, the verdicts before
	// aggregation. Journal failures abort the epoch: an unrecorded
	// transition must not take effect.
	Journal *journal.Journal
	// Obs routes the manager's metrics and spans. Nil falls back to the
	// process-wide default observer (disabled unless a command installed
	// one); instrumentation never changes protocol results because it
	// consumes no protocol randomness and timestamps flow through the
	// observer's deterministic clock.
	Obs *obs.Observer
}

// Manager coordinates the pool's distributed learning and verifies worker
// submissions (Fig. 2's pool-manager role).
type Manager struct {
	cfg     ManagerConfig
	global  tensor.Vector
	workers []Worker
	shards  map[string]*dataset.Dataset
	epoch   int
	obs     *obs.Observer

	// challenger derives each submission's challenge seed, and the
	// verifier's Sampler is reseeded with it before the submission's draw.
	challenger *challenger

	// verifier and calibrator live as long as the manager, so the training
	// runtime each builds on its first step serves every later epoch.
	verifier   *Verifier
	calibrator *Calibrator

	// encBuf is the reused journal-digest encode scratch; RunEpoch drives
	// the epoch sequentially, so one buffer serves every checksum.
	encBuf []byte

	// tasks[i] is worker i's copy of θ_t, refilled at every epoch: a worker
	// may do what it likes with the task it is handed, and the verifier
	// binds every submission against global, which no worker ever sees.
	tasks []tensor.Vector
	// next is the buffer an epoch's aggregate is written into. It and global
	// swap when the epoch aggregates, so θ_t and θ_{t+1} are the manager's
	// own two vectors, refilled in turn; nothing reads θ_t past its epoch.
	next tensor.Vector
}

// EpochReport summarizes one coordinated epoch.
type EpochReport struct {
	Epoch       int
	Calibration *Calibration
	Outcomes    []*VerifyOutcome
	Accepted    int
	Rejected    int
	// Absent counts workers that could not be reached this epoch
	// (OutcomeAbsent): unreachable, not adversarial.
	Absent int
	// VerifyCommBytes totals verification-only traffic across workers.
	VerifyCommBytes int64
	// ReexecSteps totals the manager's re-executed training steps.
	ReexecSteps int
	// Phases breaks the epoch down by protocol phase: how often each phase
	// ran, the bytes it moved, and the training steps it executed.
	Phases obs.PhaseBreakdown
}

// NewManager builds a manager over pre-constructed workers.
//
// net is the shared model architecture (with the AMLayer already prepended);
// its current parameters become the initial global model. shards maps worker
// IDs to their sub-datasets (the manager partitioned the data, so it keeps
// them for verification re-execution); probe is the manager's own (n+1)-th
// shard used by adaptive calibration.
func NewManager(cfg ManagerConfig, net *nn.Network, workers []Worker, shards map[string]*dataset.Dataset, probe *dataset.Dataset) (*Manager, error) {
	if len(workers) == 0 {
		return nil, errors.New("rpol: manager needs at least one worker")
	}
	if cfg.StepsPerEpoch < 1 || cfg.CheckpointEvery < 1 {
		return nil, errors.New("rpol: manager needs positive steps and checkpoint interval")
	}
	if len(cfg.MasterKey) == 0 {
		return nil, errors.New("rpol: manager needs a nonce master key")
	}
	if cfg.Samples < 0 {
		return nil, fmt.Errorf("rpol: manager needs a non-negative sample count, got %d", cfg.Samples)
	}
	for _, w := range workers {
		if _, ok := shards[w.ID()]; !ok {
			return nil, fmt.Errorf("rpol: no shard for worker %s", w.ID())
		}
	}
	if cfg.Scheme != SchemeBaseline && probe == nil {
		return nil, errors.New("rpol: verification schemes need a probe shard for calibration")
	}
	device, err := gpu.NewDevice(cfg.GPU, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("rpol manager: %w", err)
	}
	o := cfg.Obs.OrDefault()
	return &Manager{
		cfg:     cfg,
		global:  net.ParamVector(),
		workers: workers,
		shards:  shards,
		obs:     o,
		verifier: &Verifier{Scheme: cfg.Scheme, Net: net, Device: device, Samples: cfg.Samples,
			Sampler: tensor.NewRNG(0), Obs: o},
		calibrator: &Calibrator{Net: net, Shard: probe, Obs: o},
		challenger: newChallenger(cfg.MasterKey),
	}, nil
}

// Global returns the current global model weights: the manager's own
// vector, read-only, and valid until its next RunEpoch or Restore. A caller
// that keeps θ across an epoch clones it.
func (m *Manager) Global() tensor.Vector { return m.global }

// Restore rewinds the manager to the state after `completed` epochs with
// the given global model — crash recovery replaying a journal calls it
// before re-running the in-flight epoch.
func (m *Manager) Restore(completed int, global tensor.Vector) error {
	if completed < 0 {
		return fmt.Errorf("rpol manager restore: negative epoch count %d", completed)
	}
	if len(global) != len(m.global) {
		return fmt.Errorf("rpol manager restore: global has %d weights, want %d", len(global), len(m.global))
	}
	m.epoch = completed
	copy(m.global, global)
	return nil
}

// epochSeed derives the epoch's seed for one labelled draw (the calibration
// probes, the LSH family) from (Seed, label, epoch) alone.
func (m *Manager) epochSeed(label string, epoch int) int64 {
	return prf.SeedFromString(fmt.Sprintf("rpol/%s/%d/%d", label, m.cfg.Seed, epoch))
}

// Epoch returns the number of completed epochs.
func (m *Manager) Epoch() int { return m.epoch }

// topTwoProfiles picks the two fastest GPU profiles registered by workers.
// With fewer than two distinct registrations the manager's own profile
// fills in.
func (m *Manager) topTwoProfiles() (gpu.Profile, gpu.Profile) {
	profiles := make([]gpu.Profile, 0, len(m.workers)+1)
	for _, w := range m.workers {
		profiles = append(profiles, w.GPUProfile())
	}
	profiles = append(profiles, m.cfg.GPU)
	first, second, err := gpu.TopTwo(profiles)
	if err != nil {
		return m.cfg.GPU, m.cfg.GPU
	}
	return first, second
}

// RunEpoch coordinates one full epoch: calibrate (for verification
// schemes), distribute the task, collect submissions, verify, aggregate.
func (m *Manager) RunEpoch() (*EpochReport, error) {
	epoch := m.epoch
	report := &EpochReport{Epoch: epoch, Phases: make(obs.PhaseBreakdown)}
	epochSpan := m.obs.Start(nil, "manager.epoch",
		obs.Int("epoch", int64(epoch)), obs.String("scheme", m.cfg.Scheme.String()))
	defer epochSpan.End()

	if m.cfg.Journal != nil {
		m.encBuf = m.global.AppendEncode(m.encBuf[:0])
		if err := m.cfg.Journal.LogTask(journal.Task{
			Epoch:        epoch,
			GlobalDigest: fsio.Checksum(m.encBuf),
			Workers:      len(m.workers),
		}); err != nil {
			return nil, fmt.Errorf("rpol manager: %w", err)
		}
		// Workers are about to persist checkpoints tagged with this epoch:
		// the announcement they answer must outlive them.
		if err := m.cfg.Journal.Sync(); err != nil {
			return nil, fmt.Errorf("rpol manager: %w", err)
		}
	}

	// The calibrator and the verifier are the manager's own: they read θ_t
	// where it lives.
	baseParams := TaskParams{
		Epoch:           epoch,
		Global:          m.global,
		Hyper:           m.cfg.Hyper,
		Steps:           m.cfg.StepsPerEpoch,
		CheckpointEvery: m.cfg.CheckpointEvery,
	}

	if m.cfg.Scheme != SchemeBaseline {
		// Adaptive calibration for the upcoming epoch. The probe's results
		// could be aggregated too (the paper notes the probe is not wasted
		// work); here it is used purely for measurement.
		top1, top2 := m.topTwoProfiles()
		m.calibrator.Trace = epochSpan
		probeSeeds := [2]int64{m.epochSeed("probe-a", epoch), m.epochSeed("probe-b", epoch)}
		// RPoLv1 commits raw weights: its calibration builds no LSH family.
		cal, fam, err := m.calibrator.calibrate(baseParams, top1, top2, probeSeeds, m.epochSeed("lsh", epoch), m.cfg.Scheme == SchemeV2)
		if err != nil {
			return nil, err
		}
		report.Calibration = cal
		m.verifier.Beta = cal.Beta
		if m.cfg.Scheme == SchemeV2 {
			m.verifier.LSH = fam
			baseParams.LSH = fam
		}
		// The probe sub-task runs a full epoch on each of the top-2
		// profiles.
		report.Phases.Add(obs.PhaseCalibration,
			obs.PhaseTotals{Count: 1, Steps: 2 * int64(baseParams.Steps)})
	}

	// Distribute and collect. Nonces are issued per (worker, epoch);
	// sampling decisions are not revealed until after ALL commitments have
	// arrived — verification is a separate phase after collection
	// (commit-and-prove, Sec. V-B).
	taskBytes := int64(tensor.EncodedSize(len(m.global)))
	report.Phases.Add(obs.PhaseTaskPublish,
		obs.PhaseTotals{Count: int64(len(m.workers)), Bytes: taskBytes * int64(len(m.workers))})
	subs := make([]submission, len(m.workers))
	results := make([]*EpochResult, len(m.workers))
	workerSpans := make([]*obs.Span, len(m.workers))
	outcomes := make([]*VerifyOutcome, len(m.workers))
	m.refillTasks()
	// An unreachable worker sits the epoch out as OutcomeAbsent; any other
	// failure aborts it.
	collect := func(i int, w Worker) error {
		params := baseParams
		params.Nonce = prf.DeriveNonce(m.cfg.MasterKey, w.ID(), epoch)
		params.Trace = workerSpans[i]
		task := params
		task.Global = m.tasks[i]
		result, err := w.RunEpoch(task)
		if err != nil {
			err = fmt.Errorf("rpol manager: worker %s: %w", w.ID(), err)
			if !errors.Is(err, ErrWorkerUnavailable) {
				return err
			}
			outcomes[i] = &VerifyOutcome{WorkerID: w.ID(), Epoch: epoch, Outcome: OutcomeAbsent,
				FailReason: fmt.Errorf("absent: %w", err)}
			return nil
		}
		subs[i] = submission{
			opener: w, shard: m.shards[w.ID()], result: result, params: params,
		}
		results[i] = result
		return nil
	}
	for i, w := range m.workers {
		workerSpans[i] = m.obs.Start(epochSpan, "worker.epoch", obs.String("worker", w.ID()))
	}
	if m.cfg.ConcurrentCollection {
		errs := make([]error, len(m.workers))
		var wg sync.WaitGroup
		for i, w := range m.workers {
			wg.Add(1)
			go func(i int, w Worker) {
				defer wg.Done()
				errs[i] = collect(i, w)
			}(i, w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	} else {
		for i, w := range m.workers {
			if err := collect(i, w); err != nil {
				return nil, err
			}
		}
	}
	live := make([]submission, 0, len(m.workers))
	liveIdx := make([]int, 0, len(m.workers))
	for i, result := range results {
		if result == nil {
			continue
		}
		live = append(live, subs[i])
		liveIdx = append(liveIdx, i)
		report.Phases.Add(obs.PhaseCommitment, obs.PhaseTotals{Count: 1, Bytes: submissionBytes(result)})
		if m.cfg.Journal != nil {
			if err := m.cfg.Journal.LogCommit(journal.Commit{
				Epoch:          epoch,
				Worker:         result.WorkerID,
				Digest:         fsio.Checksum(result.MerkleRoot[:]),
				Root:           result.MerkleRoot[:],
				NumCheckpoints: result.NumCheckpoints,
			}); err != nil {
				return nil, fmt.Errorf("rpol manager: %w", err)
			}
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("rpol manager: none of %d workers responded: %w", len(m.workers), ErrWorkerUnavailable)
	}
	// The manager sees a submission, never the training behind it: an Adv1
	// submits without a step. It counts the submissions and no steps.
	report.Phases.Add(obs.PhaseTraining, obs.PhaseTotals{Count: int64(len(live))})

	if m.cfg.Journal != nil {
		// Commit-and-prove: no sample index is revealed before every
		// commitment it is drawn against is on disk.
		if err := m.cfg.Journal.Sync(); err != nil {
			return nil, fmt.Errorf("rpol manager: %w", err)
		}
	}
	verified, err := verifyAll(m.verifier, m.challenger, live)
	if err != nil {
		return nil, fmt.Errorf("rpol manager: %w", err)
	}
	for j, outcome := range verified {
		outcomes[liveIdx[j]] = outcome
	}
	accepted := make([]*EpochResult, 0, len(m.workers))
	for i, outcome := range outcomes {
		if m.cfg.Journal != nil {
			if err := m.cfg.Journal.LogVerdict(journal.Verdict{
				Epoch:   epoch,
				Worker:  outcome.WorkerID,
				Outcome: outcome.Outcome.String(),
				Reason:  reasonText(outcome.FailReason),
			}); err != nil {
				return nil, fmt.Errorf("rpol manager: %w", err)
			}
		}
		report.Outcomes = append(report.Outcomes, outcome)
		// A worker lost during its challenge is charged what it cost.
		report.VerifyCommBytes += outcome.CommBytes
		report.ReexecSteps += outcome.ReexecSteps
		report.Phases.Add(obs.PhaseChallenge, obs.PhaseTotals{Count: int64(len(outcome.SampledCheckpoints))})
		report.Phases.Add(obs.PhaseReproduction, obs.PhaseTotals{
			Count: int64(len(outcome.SampledCheckpoints)),
			Bytes: outcome.CommBytes,
			Steps: int64(outcome.ReexecSteps),
		})
		if outcome.LSHMisses > 0 || outcome.DoubleChecks > 0 {
			report.Phases.Add(obs.PhaseLSH, obs.PhaseTotals{Count: int64(outcome.LSHMisses)})
		}
		switch outcome.Outcome {
		case OutcomeAbsent:
			report.Absent++
			m.obs.Publish(obs.StreamEvent{
				Kind:   obs.EventWorkerAbsent,
				Worker: outcome.WorkerID,
				Epoch:  int64(epoch),
				Detail: reasonText(outcome.FailReason),
			})
			workerSpans[i].End(obs.String("outcome", outcome.Outcome.String()))
			continue
		case OutcomeAccepted:
			report.Accepted++
			accepted = append(accepted, results[i])
			m.obs.Publish(obs.StreamEvent{
				Kind:   obs.EventVerdictAccepted,
				Worker: outcome.WorkerID,
				Epoch:  int64(epoch),
			})
		default:
			report.Rejected++
			m.obs.Publish(obs.StreamEvent{
				Kind:   obs.EventVerdictRejected,
				Worker: outcome.WorkerID,
				Epoch:  int64(epoch),
				Detail: reasonText(outcome.FailReason),
			})
		}
		workerSpans[i].End(obs.Bool("accepted", outcome.Accepted))
	}
	if m.cfg.Journal != nil {
		// The verdicts decide what enters the global model.
		if err := m.cfg.Journal.Sync(); err != nil {
			return nil, fmt.Errorf("rpol manager: %w", err)
		}
	}
	report.Phases.Add(obs.PhaseVerdict, obs.PhaseTotals{Count: int64(len(verified))})
	m.obs.Counter("rpol_accepted_total").Add(int64(report.Accepted))
	m.obs.Counter("rpol_rejected_total").Add(int64(report.Rejected))
	if report.Absent > 0 {
		m.obs.Counter("rpol_absent_total").Add(int64(report.Absent))
	}

	if len(accepted) > 0 {
		aggSpan := m.obs.Start(epochSpan, "manager.aggregate", obs.Int("accepted", int64(len(accepted))))
		next, err := Aggregate(m.next, m.global, accepted, 1.0)
		aggSpan.End()
		if err != nil {
			return nil, fmt.Errorf("rpol manager: %w", err)
		}
		m.global, m.next = next, m.global
		report.Phases.Add(obs.PhaseAggregation, obs.PhaseTotals{Count: int64(len(accepted))})
	}
	m.epoch++
	return report, nil
}

// refillTasks copies θ_t into every worker's task buffer, allocating the
// buffers on the first epoch.
func (m *Manager) refillTasks() {
	if m.tasks == nil {
		m.tasks = make([]tensor.Vector, len(m.workers))
	}
	for i := range m.tasks {
		m.tasks[i] = tensor.Resize(m.tasks[i], len(m.global))
		copy(m.tasks[i], m.global)
	}
}

// submissionBytes is the modelled fan-in size of one epoch submission: the
// update vector plus the commitment share, a constant 32-byte root and an
// 8-byte leaf count.
func submissionBytes(r *EpochResult) int64 {
	return int64(tensor.EncodedSize(len(r.Update))) + commitment.HashSize + 8
}

// submission bundles one responsive worker's verification inputs.
type submission struct {
	opener ProofOpener
	shard  *dataset.Dataset
	result *EpochResult
	params TaskParams
}

// verifyAll is the manager's one verification loop: v checks the
// submissions one after another, in order, each drawing its samples from
// v.Sampler reseeded with the submission's challenge seed, so no submission's
// draw depends on another's. Protocol-level rejections are reported in the
// outcomes; the first internal error aborts the batch.
func verifyAll(v *Verifier, c *challenger, subs []submission) ([]*VerifyOutcome, error) {
	outcomes := make([]*VerifyOutcome, 0, len(subs))
	for _, sub := range subs {
		if v.Sampler != nil {
			v.Sampler.Seed(c.seed(sub.params.Epoch, sub.result))
		}
		outcome, err := v.VerifySubmission(sub.opener, sub.shard, sub.result, sub.params)
		if err != nil {
			return nil, fmt.Errorf("verify %s: %w", sub.result.WorkerID, err)
		}
		outcomes = append(outcomes, outcome)
	}
	return outcomes, nil
}
