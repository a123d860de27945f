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
	// evaluation).
	Samples int
	// GPU is the manager's own verification hardware.
	GPU gpu.Profile
	// MasterKey derives per-(worker, epoch) nonces.
	MasterKey []byte
	// Seed drives the manager's sampling and hardware randomness.
	Seed int64
	// XFactor/YOffset define β = x·α + y (defaults 5, 0).
	XFactor, YOffset float64
	// KLsh is the LSH computational budget (default 16).
	KLsh int
	// ParallelVerifiers enables decentralized verification (the paper's
	// Sec. IX future work): when > 1 and NetBuilder is set, submissions are
	// verified by that many verifiers concurrently instead of sequentially
	// by the manager.
	ParallelVerifiers int
	// NetBuilder constructs fresh architecture instances for parallel
	// verifiers (each needs its own, since re-execution overwrites
	// weights).
	NetBuilder func() (*nn.Network, error)
	// ConcurrentCollection trains workers concurrently during the
	// collection phase. Safe for in-process workers (each owns its network
	// and trainer); leave it off for workers multiplexed over a single
	// sequential transport (e.g. one wire.ManagerPort).
	ConcurrentCollection bool
	// Quorum is the minimum number of responsive workers an epoch needs to
	// settle. 0 (the default) keeps the historical strict behaviour: any
	// collection failure aborts the epoch. When > 0, a worker whose
	// collection fails with an error wrapping ErrWorkerUnavailable (a
	// transport deadline, a crashed peer) is recorded as OutcomeAbsent —
	// neither accepted nor counted as a detected adversary — and the epoch
	// settles with the responsive workers, failing only when fewer than
	// Quorum of them respond. Non-availability errors still abort.
	Quorum int
	// Workers sizes the deterministic compute pool threaded through the
	// epoch: workers' batch training and commitment hashing (via
	// TaskParams.Workers) and the manager's own interval re-execution. 0
	// runs the same kernels without goroutines; any n ≥ 1 yields
	// bit-identical protocol results for every n (see internal/parallel).
	// Distinct from ParallelVerifiers, which fans independent submissions
	// across verifier instances rather than parallelizing one submission's
	// compute.
	Workers int
	// Journal, when set, makes the manager log every protocol transition
	// (task announced, commitment received, samples drawn, verdict recorded)
	// to the durable epoch journal, and derives its sampling RNG and
	// verification device freshly at each epoch start as a pure function of
	// (Seed, epoch) — so a resumed run re-enters any epoch with bit-identical
	// randomness instead of depending on a cross-epoch stream position no
	// crash survivor can reconstruct. Records are synced once per phase, at
	// the point where the manager acts on them: the task before the first
	// worker is called, the commitments before the first challenge leaves,
	// the samples and verdicts before aggregation. Journal failures abort
	// the epoch: an unrecorded transition must not take effect.
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
	device  *gpu.Device
	rng     *tensor.RNG
	epoch   int
	obs     *obs.Observer

	// verifier and calibrator live as long as the manager, so the training
	// runtime each builds on its first step serves every later epoch.
	verifier   *Verifier
	calibrator *Calibrator

	// lastCal is the most recent calibration (nil before the first
	// calibrated epoch or under the baseline scheme).
	lastCal *Calibration

	// encBuf is the reused journal-digest encode scratch; RunEpoch drives
	// the epoch sequentially, so one buffer serves every checksum.
	encBuf []byte
}

// EpochReport summarizes one coordinated epoch.
type EpochReport struct {
	Epoch       int
	Calibration *Calibration
	Outcomes    []*VerifyOutcome
	Accepted    int
	Rejected    int
	// Absent counts workers that missed their deadline this epoch
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
		device:  device,
		rng:     tensor.NewRNG(cfg.Seed),
		obs:     o,
		verifier: &Verifier{Scheme: cfg.Scheme, Net: net, Samples: cfg.Samples,
			Obs: o, Workers: cfg.Workers},
		calibrator: &Calibrator{Net: net, Shard: probe, XFactor: cfg.XFactor,
			YOffset: cfg.YOffset, KLsh: cfg.KLsh, Obs: o},
	}, nil
}

// Global returns a copy of the current global model weights.
func (m *Manager) Global() tensor.Vector { return m.global.Clone() }

// Restore rewinds the manager to the state after `completed` epochs with
// the given global model — crash recovery replaying a journal calls it
// before re-running the in-flight epoch. Only meaningful under a Journal
// (per-epoch derived randomness); without one the sampling stream position
// cannot be reconstructed.
func (m *Manager) Restore(completed int, global tensor.Vector) error {
	if completed < 0 {
		return fmt.Errorf("rpol manager restore: negative epoch count %d", completed)
	}
	if len(global) != len(m.global) {
		return fmt.Errorf("rpol manager restore: global has %d weights, want %d", len(global), len(m.global))
	}
	m.epoch = completed
	m.global = global.Clone()
	m.lastCal = nil
	return nil
}

// deriveEpochState re-seeds the manager's sampling RNG for the given epoch.
// Under a Journal every epoch's randomness is a pure function of (Seed,
// epoch), which is what makes a resumed epoch bit-identical to its
// uninterrupted counterpart. The verification device needs no re-seeding:
// its replay noise is keyed by each worker's nonce.
func (m *Manager) deriveEpochState(epoch int) {
	m.rng = tensor.NewRNG(prf.SeedFromString(fmt.Sprintf("rpol/epoch-rng/%d/%d", m.cfg.Seed, epoch)))
}

// Epoch returns the number of completed epochs.
func (m *Manager) Epoch() int { return m.epoch }

// LastCalibration returns the most recent epoch's calibration, or nil.
func (m *Manager) LastCalibration() *Calibration { return m.lastCal }

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
		m.deriveEpochState(epoch)
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

	baseParams := TaskParams{
		Epoch:           epoch,
		Global:          m.global.Clone(),
		Hyper:           m.cfg.Hyper,
		Steps:           m.cfg.StepsPerEpoch,
		CheckpointEvery: m.cfg.CheckpointEvery,
		Workers:         m.cfg.Workers,
	}

	// The sampler is re-derived per epoch under a journal.
	verifier := m.verifier
	verifier.Device, verifier.Sampler = m.device, m.rng

	if m.cfg.Scheme != SchemeBaseline {
		// Adaptive calibration for the upcoming epoch. The probe's results
		// could be aggregated too (the paper notes the probe is not wasted
		// work); here it is used purely for measurement.
		top1, top2 := m.topTwoProfiles()
		m.calibrator.Trace = epochSpan
		probeSeeds := [2]int64{m.rng.Int63(), m.rng.Int63()}
		cal, fam, err := m.calibrator.Calibrate(baseParams, top1, top2, probeSeeds, m.rng.Int63())
		if err != nil {
			return nil, err
		}
		m.lastCal = cal
		report.Calibration = cal
		verifier.Beta = cal.Beta
		if m.cfg.Scheme == SchemeV2 {
			verifier.LSH = fam
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
	subs := make([]Submission, len(m.workers))
	results := make([]*EpochResult, len(m.workers))
	workerSpans := make([]*obs.Span, len(m.workers))
	collect := func(i int, w Worker) error {
		params := baseParams
		params.Global = m.global.Clone()
		params.Nonce = prf.DeriveNonce(m.cfg.MasterKey, w.ID(), epoch)
		params.Trace = workerSpans[i]
		result, err := w.RunEpoch(params)
		if err != nil {
			return fmt.Errorf("rpol manager: worker %s: %w", w.ID(), err)
		}
		subs[i] = Submission{
			Opener: w, Shard: m.shards[w.ID()], Result: result, Params: params,
		}
		results[i] = result
		return nil
	}
	for i, w := range m.workers {
		workerSpans[i] = m.obs.Start(epochSpan, "worker.epoch", obs.String("worker", w.ID()))
	}
	errs := make([]error, len(m.workers))
	if m.cfg.ConcurrentCollection {
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
			if err != nil && !m.absentErr(err) {
				return nil, err
			}
		}
	} else {
		for i, w := range m.workers {
			errs[i] = collect(i, w)
			if errs[i] != nil && !m.absentErr(errs[i]) {
				return nil, errs[i]
			}
		}
	}
	// Partition workers into responsive and absent. A collection error
	// reaching this point is an availability failure under an active quorum
	// (absentErr aborted on everything else): the worker sits the epoch out
	// as OutcomeAbsent and the responsive ones carry it — provided enough of
	// them remain.
	responsive := 0
	for _, err := range errs {
		if err == nil {
			responsive++
		}
	}
	if responsive < len(m.workers) && responsive < m.cfg.Quorum {
		return nil, fmt.Errorf("rpol manager: only %d of %d workers responsive, quorum is %d: %w",
			responsive, len(m.workers), m.cfg.Quorum, ErrWorkerUnavailable)
	}
	report.Phases.Add(obs.PhaseTraining, obs.PhaseTotals{
		Count: int64(responsive),
		Steps: int64(responsive) * int64(m.cfg.StepsPerEpoch),
	})
	live := make([]Submission, 0, responsive)
	liveIdx := make([]int, 0, responsive)
	for i, result := range results {
		if errs[i] != nil {
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

	if m.cfg.Journal != nil {
		// Commit-and-prove: no sample index is revealed before every
		// commitment it is drawn against is on disk.
		if err := m.cfg.Journal.Sync(); err != nil {
			return nil, fmt.Errorf("rpol manager: %w", err)
		}
	}
	verified, err := m.verifyAll(verifier, live)
	if err != nil {
		return nil, fmt.Errorf("rpol manager: %w", err)
	}
	outcomes := make([]*VerifyOutcome, len(m.workers))
	for j, outcome := range verified {
		outcomes[liveIdx[j]] = outcome
	}
	for i, w := range m.workers {
		if outcomes[i] == nil {
			outcomes[i] = &VerifyOutcome{
				WorkerID:   w.ID(),
				Epoch:      epoch,
				Outcome:    OutcomeAbsent,
				FailReason: "absent: " + errs[i].Error(),
			}
		}
	}
	accepted := make([]*EpochResult, 0, len(m.workers))
	for i, outcome := range outcomes {
		if m.cfg.Journal != nil {
			if outcome.Outcome != OutcomeAbsent {
				if err := m.cfg.Journal.LogSamples(journal.Samples{
					Epoch:   epoch,
					Worker:  outcome.WorkerID,
					Indices: outcome.SampledCheckpoints,
				}); err != nil {
					return nil, fmt.Errorf("rpol manager: %w", err)
				}
			}
			if err := m.cfg.Journal.LogVerdict(journal.Verdict{
				Epoch:   epoch,
				Worker:  outcome.WorkerID,
				Outcome: outcome.Outcome.String(),
				Reason:  outcome.FailReason,
			}); err != nil {
				return nil, fmt.Errorf("rpol manager: %w", err)
			}
		}
		report.Outcomes = append(report.Outcomes, outcome)
		if outcome.Outcome == OutcomeAbsent {
			report.Absent++
			m.obs.Publish(obs.StreamEvent{
				Kind:   obs.EventWorkerAbsent,
				Worker: outcome.WorkerID,
				Epoch:  int64(epoch),
				Detail: outcome.FailReason,
			})
			workerSpans[i].End(obs.String("outcome", outcome.Outcome.String()))
			continue
		}
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
		if outcome.Accepted {
			report.Accepted++
			accepted = append(accepted, results[i])
			m.obs.Publish(obs.StreamEvent{
				Kind:   obs.EventVerdictAccepted,
				Worker: outcome.WorkerID,
				Epoch:  int64(epoch),
			})
		} else {
			report.Rejected++
			m.obs.Publish(obs.StreamEvent{
				Kind:   obs.EventVerdictRejected,
				Worker: outcome.WorkerID,
				Epoch:  int64(epoch),
				Detail: outcome.FailReason,
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
		next, err := Aggregate(m.global, accepted, 1.0)
		aggSpan.End()
		if err != nil {
			return nil, fmt.Errorf("rpol manager: %w", err)
		}
		m.global = next
		report.Phases.Add(obs.PhaseAggregation, obs.PhaseTotals{Count: int64(len(accepted))})
	}
	m.epoch++
	m.obs.Counter("rpol_epochs_total").Inc()
	report.Phases.MirrorTo(m.obs.Registry())
	return report, nil
}

// absentErr reports whether a collection error marks the worker absent
// rather than aborting the epoch: only availability failures qualify, and
// only when a quorum is configured (the strict default keeps every failure
// fatal, preserving the historical behaviour).
func (m *Manager) absentErr(err error) bool {
	return m.cfg.Quorum > 0 && errors.Is(err, ErrWorkerUnavailable)
}

// submissionBytes is the modelled fan-in size of one epoch submission: the
// update vector plus the commitment share, a constant 32-byte root and an
// 8-byte leaf count.
func submissionBytes(r *EpochResult) int64 {
	return int64(tensor.EncodedSize(len(r.Update))) + commitment.HashSize + 8
}

// verifyAll checks every submission: concurrently through a VerifierPool
// when decentralized verification is configured, sequentially through the
// manager's own verifier otherwise.
func (m *Manager) verifyAll(verifier *Verifier, subs []Submission) ([]*VerifyOutcome, error) {
	if m.cfg.Scheme != SchemeBaseline && m.cfg.ParallelVerifiers > 1 && m.cfg.NetBuilder != nil {
		vp, err := NewVerifierPool(m.cfg.ParallelVerifiers, m.cfg.Scheme, m.cfg.NetBuilder,
			m.cfg.GPU, verifier.Beta, verifier.LSH, m.cfg.Samples, m.rng.Int63())
		if err != nil {
			return nil, err
		}
		vp.SetObserver(m.obs)
		return vp.VerifyAll(subs)
	}
	outcomes := make([]*VerifyOutcome, 0, len(subs))
	for _, sub := range subs {
		outcome, err := verifier.VerifySubmission(sub.Opener, sub.Shard, sub.Result, sub.Params)
		if err != nil {
			return nil, fmt.Errorf("verify %s: %w", sub.Result.WorkerID, err)
		}
		outcomes = append(outcomes, outcome)
	}
	return outcomes, nil
}
