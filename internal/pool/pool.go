// Package pool assembles a complete mining pool (Fig. 2): a manager, a mix
// of honest and adversarial workers, shard distribution, per-epoch
// coordination with RPoL verification, reward accounting, and global-model
// evaluation on the held-out test set. The Fig. 6 experiments (model
// accuracy under attack, with and without verification) run on this
// package.
package pool

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"rpol/internal/adversary"
	"rpol/internal/amlayer"
	"rpol/internal/checkpoint"
	"rpol/internal/dataset"
	"rpol/internal/fsio"
	"rpol/internal/gpu"
	"rpol/internal/journal"
	"rpol/internal/modelzoo"
	"rpol/internal/netsim"
	"rpol/internal/nn"
	"rpol/internal/obs"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// Adv2's attack follows the paper's evaluation: it trains the first 10 % of
// its checkpoint intervals honestly and spoofs the rest by Eq. (12) with
// λ = 0.5.
const (
	adv2HonestFraction = 0.1
	adv2Lambda         = 0.5
)

// Config describes one pool instantiation.
type Config struct {
	// TaskName keys into modelzoo (e.g. "resnet18-cifar10").
	TaskName string
	// Scheme selects baseline / RPoLv1 / RPoLv2 verification.
	Scheme rpol.Scheme
	// NumWorkers is the pool size (the paper's prototype uses 10).
	NumWorkers int
	// Adv1Fraction and Adv2Fraction are the shares of workers running the
	// replay attack and the spoofing attack respectively.
	Adv1Fraction float64
	Adv2Fraction float64
	// StepsPerEpoch, CheckpointEvery, Samples parameterize the protocol.
	// Zero values take the defaults (derived steps, interval 5, q = 3).
	StepsPerEpoch   int
	CheckpointEvery int
	Samples         int
	// ManagerAddress is the pool's blockchain address, encoded in the
	// AMLayer when UseAMLayer is set.
	ManagerAddress string
	UseAMLayer     bool
	// Seed makes the whole pool construction and run reproducible.
	Seed int64
	// Faults is an optional deterministic fault plan: its crash-restart
	// schedule knocks workers out for whole epochs (they fail collection
	// with rpol.ErrWorkerUnavailable and are recorded as absent). Nil falls
	// back to the process-wide default installed by the -faultseed flag,
	// then to no faults. Because the plan is a pure function of its seed,
	// two runs with the same (Seed, fault plan) produce identical
	// EpochStats, absences included.
	Faults *netsim.FaultPlan
	// Obs routes the pool's metrics and spans (nil falls back to the
	// process-wide default observer, disabled unless a command installed
	// one). Instrumentation does not change protocol results: a seeded run
	// with and without an observer produces identical EpochStats.
	Obs *obs.Observer
	// Journal is a directory for the pool's durability layer: the manager's
	// append-only epoch journal (epoch.wal), a per-epoch state snapshot
	// (state.bin), and one append-only checkpoint segment per honest worker
	// (ckpt-<id>/segment.bin). Empty disables journaling. A journal changes
	// what is written, never an outcome: the same configuration settles
	// every epoch alike with and without one.
	Journal string
	// Resume, with Journal set, recovers the pool's position from the
	// journal instead of starting fresh: sealed epochs are replayed from
	// their seal records (global model, rewards) and the in-flight epoch
	// restarts from each worker's intact durable checkpoint prefix. The
	// result is bit-identical to the uninterrupted run. An empty or missing
	// journal resumes as a fresh run.
	Resume bool
	// FS is the filesystem the durability layer writes through (nil uses
	// the real one). Crash-recovery tests inject an fsio.FaultFS here.
	FS fsio.FS
}

func (c *Config) applyDefaults() {
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 5
	}
	if c.Samples == 0 {
		c.Samples = 3
	}
	if c.StepsPerEpoch == 0 {
		c.StepsPerEpoch = 15
	}
	if c.ManagerAddress == "" {
		c.ManagerAddress = "pool-manager"
	}
	if c.Journal != "" && c.FS == nil {
		c.FS = fsio.OS
	}
	if c.Faults == nil {
		c.Faults = netsim.DefaultFaultPlan()
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.TaskName == "":
		return errors.New("pool: task name required")
	case c.NumWorkers < 1:
		return errors.New("pool: need at least one worker")
	// Written so that NaN, for which every comparison is false, fails too.
	case !(c.Adv1Fraction >= 0 && c.Adv2Fraction >= 0 && c.Adv1Fraction+c.Adv2Fraction <= 1):
		return errors.New("pool: adversary fractions must be non-negative and sum to ≤ 1")
	// applyDefaults only rewrites exact zeros, so negatives would flow
	// straight into the protocol; reject them here.
	case c.StepsPerEpoch < 0:
		return errors.New("pool: steps per epoch must not be negative")
	case c.CheckpointEvery < 0:
		return errors.New("pool: checkpoint interval must not be negative")
	case c.Samples < 0:
		return errors.New("pool: sample count must not be negative")
	case c.Resume && c.Journal == "":
		return errors.New("pool: resume requires a journal directory")
	}
	return nil
}

// Role classifies a pool participant for detection accounting.
type Role int

// Worker roles.
const (
	RoleHonest Role = iota + 1
	RoleAdv1
	RoleAdv2
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleHonest:
		return "honest"
	case RoleAdv1:
		return "adv1"
	case RoleAdv2:
		return "adv2"
	default:
		return "unknown"
	}
}

// member pairs a protocol worker with its ground-truth role.
type member struct {
	worker rpol.Worker
	role   Role
}

// faultWorker applies a FaultPlan's crash-restart schedule to an in-process
// worker: during epochs the plan has the worker down, RunEpoch fails with
// rpol.ErrWorkerUnavailable before any training happens, as a transport
// reports a peer it cannot reach — so the manager
// records it absent. The decision is a pure function of (plan seed, worker
// ID, epoch), keeping seeded runs replayable.
type faultWorker struct {
	rpol.Worker
	plan *netsim.FaultPlan
}

func (f *faultWorker) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	if f.plan.WorkerDown(f.Worker.ID(), p.Epoch) {
		return nil, fmt.Errorf("pool: worker %s down for epoch %d: %w",
			f.Worker.ID(), p.Epoch, rpol.ErrWorkerUnavailable)
	}
	return f.Worker.RunEpoch(p)
}

// Pool is a ready-to-run mining pool.
type Pool struct {
	cfg      Config
	spec     modelzoo.TaskSpec
	manager  *rpol.Manager
	members  []member
	evalNet  *nn.Network
	buildNet func() (*nn.Network, error)
	testXs   []tensor.Vector
	testYs   []int
	rewards  map[string]float64
	obs      *obs.Observer

	// Durability layer (nil/empty without Config.Journal).
	fs        fsio.FS
	journal   *journal.Journal
	recovered []journal.Seal // the seals a resumed pool replayed its position from

	// encBuf is the reused global-model encode scratch for seal digests and
	// resume checks, stateBuf and fileBuf the state snapshot's body and file;
	// the pool runs epochs sequentially, so one of each suffices.
	encBuf, stateBuf, fileBuf []byte
}

// diskState is the atomically-written per-epoch snapshot (state.bin): the
// completed-epoch count, the global model's wire encoding, and the last
// epoch's seal. It is written BEFORE the seal record is journaled, so a
// crash between the two is reconciled on resume by adopting LastSeal as the
// missing seal — the invariant is state.Epoch ∈ {#seals, #seals+1}.
type diskState struct {
	Epoch    int
	Global   []byte
	LastSeal *journal.Seal
}

// stateKind is the body kind byte of state.bin. Its body is the epoch, the
// global model's wire encoding, then the last seal's journal body to the end.
const stateKind = 'P'

// appendBody appends the state snapshot's body to dst.
func (ds diskState) appendBody(dst []byte) []byte {
	dst = fsio.AppendBodyHeader(dst, stateKind)
	dst = fsio.AppendInt(dst, int64(ds.Epoch))
	dst = fsio.AppendBlob(dst, ds.Global)
	if ds.LastSeal != nil {
		dst = ds.LastSeal.AppendBody(dst)
	}
	return dst
}

// decodeState decodes a state snapshot's body; Global aliases body.
func decodeState(body []byte) (diskState, error) {
	r := fsio.ReadBody(body, stateKind)
	ds := diskState{Epoch: r.Int(), Global: r.Blob()}
	seal := r.Rest()
	if err := r.Done(); err != nil {
		return diskState{}, err
	}
	if len(seal) > 0 {
		s, err := journal.DecodeSeal(seal)
		if err != nil {
			return diskState{}, err
		}
		ds.LastSeal = &s
	}
	return ds, nil
}

// Durability file names under Config.Journal.
const (
	journalFile = "epoch.wal"
	stateFile   = "state.bin"
)

// EpochStats records one epoch's outcome for the experiment harness.
type EpochStats struct {
	Epoch        int
	TestAccuracy float64
	Accepted     int
	Rejected     int
	// DetectedAdversaries counts rejected submissions that really came from
	// adversaries (true positives).
	DetectedAdversaries int
	// MissedAdversaries counts accepted adversarial submissions (false
	// negatives of the scheme as a detector).
	MissedAdversaries int
	// FalseRejections counts rejected honest submissions — the paper's
	// "0 false negative for honesty" target says this should stay 0.
	// Workers that merely missed their deadline are counted in
	// AbsentWorkers instead, never here.
	FalseRejections int
	// AbsentWorkers counts workers that missed the epoch entirely (crash,
	// partition, persistent loss): neither rewarded nor treated as
	// detected adversaries.
	AbsentWorkers   int
	Calibration     *rpol.Calibration
	VerifyCommBytes int64
	ReexecSteps     int
	// Phases is the epoch's per-phase cost breakdown (counts, bytes,
	// training steps), including the pool-level settlement phase.
	Phases obs.PhaseBreakdown
}

// New builds the pool: dataset generation and sharding, per-worker model
// instances (identical initialization, with the AMLayer prepended when
// configured), adversary placement, and the manager.
func New(cfg Config) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	observer := cfg.Obs.OrDefault()
	spec, err := modelzoo.Get(cfg.TaskName)
	if err != nil {
		return nil, err
	}

	// Build the shared data: train split partitioned into n+1 i.i.d.
	// shards (workers + the manager's calibration probe), plus the held-out
	// test set.
	_, train, test, err := spec.BuildProxy(cfg.Seed)
	if err != nil {
		return nil, err
	}
	shards, err := train.Partition(cfg.NumWorkers + 1)
	if err != nil {
		return nil, fmt.Errorf("pool: %w", err)
	}
	buildNet := func() (*nn.Network, error) {
		net, err := spec.BuildProxyNet(cfg.Seed + 1)
		if err != nil {
			return nil, err
		}
		if !cfg.UseAMLayer {
			return net, nil
		}
		// The pool uses a mild stack (c = 0.5, depth 3): the strong
		// theft-resistant configuration (amlayer.StackConfig) amplifies the
		// proxy's loss-surface curvature enough to fatten reproduction-error
		// tails, and theft resistance is a consensus-layer property
		// exercised by the Table I experiment, not by pool verification.
		stack, err := amlayer.NewDenseStack(cfg.ManagerAddress, spec.ProxyDim, 3, amlayer.DefaultConfig())
		if err != nil {
			return nil, err
		}
		return amlayer.PrependStack(stack, net)
	}

	// Adversary counts (rounded to nearest).
	nAdv1 := int(math.Round(cfg.Adv1Fraction * float64(cfg.NumWorkers)))
	nAdv2 := int(math.Round(cfg.Adv2Fraction * float64(cfg.NumWorkers)))
	if nAdv1+nAdv2 > cfg.NumWorkers {
		nAdv2 = cfg.NumWorkers - nAdv1
	}

	profiles := gpu.Profiles()
	members := make([]member, 0, cfg.NumWorkers)
	workers := make([]rpol.Worker, 0, cfg.NumWorkers)
	// raw keeps the unwrapped workers: fault wrappers forward rpol.Worker
	// only, so segment wiring and resume arming must reach through them.
	raw := make([]rpol.Worker, 0, cfg.NumWorkers)
	shardMap := make(map[string]*dataset.Dataset, cfg.NumWorkers)
	for i := 0; i < cfg.NumWorkers; i++ {
		profile := profiles[i%len(profiles)]
		shard := shards[i]
		runSeed := cfg.Seed + int64(1000+i)
		var (
			w    rpol.Worker
			role Role
		)
		switch {
		case i < nAdv1:
			role = RoleAdv1
			w = adversary.NewAdv1(fmt.Sprintf("adv1-%02d", i), profile, shard.Len())
		case i < nAdv1+nAdv2:
			role = RoleAdv2
			net, err := buildNet()
			if err != nil {
				return nil, err
			}
			w, err = adversary.NewAdv2(fmt.Sprintf("adv2-%02d", i), profile, runSeed, net, shard,
				adv2HonestFraction, adv2Lambda)
			if err != nil {
				return nil, err
			}
		default:
			role = RoleHonest
			net, err := buildNet()
			if err != nil {
				return nil, err
			}
			hw, err := rpol.NewHonestWorker(fmt.Sprintf("worker-%02d", i), profile, runSeed, net, shard)
			if err != nil {
				return nil, err
			}
			hw.SetObserver(observer)
			w = hw
		}
		raw = append(raw, w)
		if cfg.Faults != nil {
			w = &faultWorker{Worker: w, plan: cfg.Faults}
		}
		members = append(members, member{worker: w, role: role})
		workers = append(workers, w)
		shardMap[w.ID()] = shard
	}

	// Durability layer: open (or create) the manager's epoch journal and give
	// every honest worker its own append-only checkpoint segment. A resume
	// checks every durable file's format before the journal may rewrite its
	// torn tail, so a directory of another format is refused untouched.
	var (
		j     *journal.Journal
		st    *journal.State
		rec   *journal.Recovery
		state *diskState
	)
	if cfg.Journal != "" {
		if err := cfg.FS.MkdirAll(cfg.Journal); err != nil {
			return nil, fmt.Errorf("pool journal dir: %w", err)
		}
		for _, w := range raw {
			hw, ok := w.(*rpol.HonestWorker)
			if !ok {
				continue
			}
			seg, err := checkpoint.NewSegment(cfg.FS, filepath.Join(cfg.Journal, "ckpt-"+hw.ID()))
			if err != nil {
				return nil, fmt.Errorf("pool journal: %w", err)
			}
			if cfg.Resume {
				if err := seg.CheckVersion(); err != nil {
					return nil, fmt.Errorf("pool resume: %w", err)
				}
			}
			hw.SetSegment(seg)
		}
		walPath := filepath.Join(cfg.Journal, journalFile)
		if cfg.Resume {
			if state, err = readState(cfg.FS, cfg.Journal); err != nil {
				return nil, err
			}
			j, rec, err = journal.Open(cfg.FS, walPath, observer)
			if err != nil {
				return nil, fmt.Errorf("pool journal: %w", err)
			}
			st, err = journal.Reconstruct(rec.Records)
			if err != nil {
				_ = j.Close()
				return nil, fmt.Errorf("pool journal: %w", err)
			}
		} else {
			j, err = journal.Create(cfg.FS, walPath, observer)
			if err != nil {
				return nil, fmt.Errorf("pool journal: %w", err)
			}
		}
	}

	managerNet, err := buildNet()
	if err != nil {
		return nil, err
	}
	// The master key derives from the public address, so the simulator's
	// nonce and challenge key is no secret (PROTOCOL.md, the caveat after
	// the security table).
	manager, err := rpol.NewManager(rpol.ManagerConfig{
		Address:         cfg.ManagerAddress,
		Scheme:          cfg.Scheme,
		Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: spec.ProxyBatchSize},
		StepsPerEpoch:   cfg.StepsPerEpoch,
		CheckpointEvery: cfg.CheckpointEvery,
		Samples:         cfg.Samples,
		GPU:             gpu.G3090,
		MasterKey:       []byte(cfg.ManagerAddress + "/nonce-master"),
		Seed:            cfg.Seed + 7,
		Obs:             observer,
		Journal:         j,
		// In-process workers each own their network and trainer, so the
		// collection phase can safely run them concurrently — except under a
		// journal, where serial collection keeps the order of durable writes
		// (the workers' segment appends and syncs) a pure function of the
		// seed, which the process-global FaultFS ordinal relies on.
		ConcurrentCollection: cfg.Journal == "",
	}, managerNet, workers, shardMap, shards[cfg.NumWorkers])
	if err != nil {
		return nil, err
	}

	evalNet, err := buildNet()
	if err != nil {
		return nil, err
	}
	testXs := make([]tensor.Vector, test.Len())
	testYs := make([]int, test.Len())
	for i, ex := range test.Examples {
		testXs[i] = ex.Features
		testYs[i] = ex.Label
	}
	p := &Pool{
		cfg:      cfg,
		spec:     spec,
		manager:  manager,
		members:  members,
		evalNet:  evalNet,
		buildNet: buildNet,
		testXs:   testXs,
		testYs:   testYs,
		rewards:  make(map[string]float64),
		obs:      observer,
		fs:       cfg.FS,
		journal:  j,
	}
	if cfg.Resume && st != nil {
		if err := p.applyRecovery(st, state, raw); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// applyRecovery rewinds the freshly-built pool to the journaled position:
// it reconciles the seal history with the state file, restores the global
// model and reward ledger, and arms honest workers to adopt the in-flight
// epoch's durable checkpoint prefix. Device noise is keyed by each task's
// nonce and step, so no worker has noise to replay, whichever epochs it
// trained or was down for.
func (p *Pool) applyRecovery(st *journal.State, ds *diskState, raw []rpol.Worker) error {
	// Reconcile the one crash window the write order leaves open: state.bin
	// lands atomically BEFORE the seal record, so the state file may be one
	// epoch ahead of the journal — its embedded seal is the missing record.
	if ds == nil {
		if len(st.Sealed) > 0 {
			return fmt.Errorf("pool resume: %d sealed epochs but no state file", len(st.Sealed))
		}
	} else {
		switch {
		case ds.Epoch == len(st.Sealed)+1 && ds.LastSeal != nil:
			// Crashed between writing state.bin and journaling the seal.
			if err := p.logSeal(*ds.LastSeal); err != nil {
				return fmt.Errorf("pool resume: %w", err)
			}
			st.Sealed = append(st.Sealed, *ds.LastSeal)
			if st.InFlight >= 0 && st.InFlight <= ds.LastSeal.Epoch {
				st.ClearInFlight()
			}
		case ds.Epoch == len(st.Sealed):
			// Clean: every sealed epoch has its record.
		default:
			return fmt.Errorf("pool resume: state file at epoch %d, journal sealed %d",
				ds.Epoch, len(st.Sealed))
		}
	}
	completed := len(st.Sealed)
	p.recovered = append([]journal.Seal(nil), st.Sealed...)

	if completed > 0 {
		global, err := tensor.DecodeVector(ds.Global)
		if err != nil {
			return fmt.Errorf("pool resume: global model: %w", err)
		}
		if err := p.manager.Restore(completed, global); err != nil {
			return fmt.Errorf("pool resume: %w", err)
		}
		p.encBuf = global.AppendEncode(p.encBuf[:0])
		if got := fsio.Checksum(p.encBuf); got != st.Sealed[completed-1].GlobalDigest {
			return fmt.Errorf("pool resume: global model digest %x does not match seal %x",
				got, st.Sealed[completed-1].GlobalDigest)
		}
	}

	// Replay the reward ledger from the seal records.
	for _, seal := range st.Sealed {
		for _, id := range seal.AcceptedWorkers {
			p.rewards[id]++
		}
	}

	// Arm the in-flight epoch's checkpoint-prefix adoption. The task record
	// must announce exactly the epoch and global model the restored manager
	// will re-announce; anything else means the prefix belongs to a
	// different history and retraining from scratch is the safe choice.
	p.encBuf = p.manager.Global().AppendEncode(p.encBuf[:0])
	if st.InFlight == completed && st.Task != nil &&
		st.Task.GlobalDigest == fsio.Checksum(p.encBuf) {
		for _, w := range raw {
			if hw, ok := w.(*rpol.HonestWorker); ok {
				hw.PrepareResume(completed)
			}
		}
	}
	p.obs.Counter("pool_resumes_total").Inc()
	p.obs.Publish(obs.StreamEvent{
		Kind:   obs.EventPoolResumed,
		Epoch:  int64(completed),
		Detail: fmt.Sprintf("sealed=%d inFlight=%d", completed, st.InFlight),
	})
	return nil
}

// readState reads and decodes dir's state.bin; a missing file is nil (no
// epoch ever sealed).
func readState(fs fsio.FS, dir string) (*diskState, error) {
	data, err := fs.ReadFile(filepath.Join(dir, stateFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("pool resume: %w", err)
	}
	body, err := fsio.DecodeFile(data)
	if err != nil {
		return nil, fmt.Errorf("pool resume: state file: %w", err)
	}
	ds, err := decodeState(body)
	if err != nil {
		return nil, fmt.Errorf("pool resume: state file: %w", err)
	}
	return &ds, nil
}

// CompletedEpochs returns the number of sealed epochs (including recovered
// ones after a resume).
func (p *Pool) CompletedEpochs() int { return p.manager.Epoch() }

// Close releases the pool's durability resources (the journal's append
// handle). Safe on a pool without a journal.
func (p *Pool) Close() error {
	if p.journal == nil {
		return nil
	}
	return p.journal.Close()
}

// Spec returns the pool's task spec.
func (p *Pool) Spec() modelzoo.TaskSpec { return p.spec }

// Manager exposes the underlying protocol manager.
func (p *Pool) Manager() *rpol.Manager { return p.manager }

// Roles returns the ground-truth role of every worker ID.
func (p *Pool) Roles() map[string]Role {
	out := make(map[string]Role, len(p.members))
	for _, m := range p.members {
		out[m.worker.ID()] = m.role
	}
	return out
}

// CandidateNet materializes the pool's current global model as a network
// instance (with the AMLayer stack, when configured) ready to be proposed
// as a consensus candidate.
func (p *Pool) CandidateNet() (*nn.Network, error) {
	net, err := p.buildNet()
	if err != nil {
		return nil, err
	}
	if err := net.SetParamVector(p.manager.Global()); err != nil {
		return nil, fmt.Errorf("pool candidate: %w", err)
	}
	return net, nil
}

// TestSet returns the pool's held-out evaluation data.
func (p *Pool) TestSet() ([]tensor.Vector, []int) {
	xs := make([]tensor.Vector, len(p.testXs))
	copy(xs, p.testXs)
	ys := make([]int, len(p.testYs))
	copy(ys, p.testYs)
	return xs, ys
}

// TestAccuracy evaluates the current global model on the held-out test set.
func (p *Pool) TestAccuracy() (float64, error) {
	if err := p.evalNet.SetParamVector(p.manager.Global()); err != nil {
		return 0, fmt.Errorf("pool eval: %w", err)
	}
	return p.evalNet.Accuracy(p.testXs, p.testYs)
}

// Rewards returns a copy of the cumulative per-worker rewards (one unit per
// accepted epoch, as in Theorem 3's normalization).
func (p *Pool) Rewards() map[string]float64 {
	out := make(map[string]float64, len(p.rewards))
	for k, v := range p.rewards {
		out[k] = v
	}
	return out
}

// RunEpoch coordinates one epoch and returns its stats.
func (p *Pool) RunEpoch() (*EpochStats, error) {
	roles := p.Roles()
	report, err := p.manager.RunEpoch()
	if err != nil {
		return nil, err
	}
	stats := &EpochStats{
		Epoch:           report.Epoch,
		Accepted:        report.Accepted,
		Rejected:        report.Rejected,
		AbsentWorkers:   report.Absent,
		Calibration:     report.Calibration,
		VerifyCommBytes: report.VerifyCommBytes,
		ReexecSteps:     report.ReexecSteps,
		Phases:          report.Phases.Clone(),
	}
	for _, o := range report.Outcomes {
		if o.Outcome == rpol.OutcomeAbsent {
			// An unreachable worker earns nothing and proves nothing: it is
			// neither a detected adversary nor a false rejection.
			continue
		}
		role := roles[o.WorkerID]
		switch {
		case o.Accepted && role == RoleHonest:
			p.rewards[o.WorkerID]++
		case o.Accepted: // adversary slipped through
			p.rewards[o.WorkerID]++
			stats.MissedAdversaries++
		case role == RoleHonest:
			stats.FalseRejections++
		default:
			stats.DetectedAdversaries++
		}
	}
	// Settlement: one reward credit per accepted submission.
	stats.Phases.Add(obs.PhaseSettlement, obs.PhaseTotals{Count: int64(report.Accepted)})
	p.obs.Counter("pool_epochs_total").Inc()
	p.obs.Counter("pool_detected_adversaries_total").Add(int64(stats.DetectedAdversaries))
	p.obs.Counter("pool_missed_adversaries_total").Add(int64(stats.MissedAdversaries))
	p.obs.Counter("pool_false_rejections_total").Add(int64(stats.FalseRejections))
	acc, err := p.TestAccuracy()
	if err != nil {
		return nil, err
	}
	stats.TestAccuracy = acc
	p.obs.Gauge("pool_test_accuracy").Set(acc)
	p.obs.Publish(obs.StreamEvent{
		Kind:  obs.EventEpochSealed,
		Epoch: int64(stats.Epoch),
		Detail: fmt.Sprintf("accuracy=%.4f accepted=%d rejected=%d absent=%d",
			acc, stats.Accepted, stats.Rejected, stats.AbsentWorkers),
	})
	if p.journal != nil {
		if err := p.sealEpoch(stats, report); err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// sealEpoch makes the settled epoch durable. Write order matters: the state
// snapshot (completed count + global model + the seal itself) lands
// atomically FIRST, then the seal record is appended to the journal. A crash
// between the two leaves state.bin one epoch ahead — applyRecovery adopts
// its embedded LastSeal as the missing record, so the invariant
// state.Epoch ∈ {#seals, #seals+1} always reconciles.
func (p *Pool) sealEpoch(stats *EpochStats, report *rpol.EpochReport) error {
	accepted := make([]string, 0, stats.Accepted)
	for _, o := range report.Outcomes {
		if o.Accepted {
			accepted = append(accepted, o.WorkerID)
		}
	}
	// The encode scratch doubles as the snapshot's global: appendBody copies
	// it synchronously below, so reuse is safe.
	p.encBuf = p.manager.Global().AppendEncode(p.encBuf[:0])
	global := p.encBuf
	seal := journal.Seal{
		Epoch:           stats.Epoch,
		TestAccuracy:    stats.TestAccuracy,
		Accepted:        stats.Accepted,
		Rejected:        stats.Rejected,
		Absent:          stats.AbsentWorkers,
		Detected:        stats.DetectedAdversaries,
		Missed:          stats.MissedAdversaries,
		FalseRejections: stats.FalseRejections,
		VerifyCommBytes: stats.VerifyCommBytes,
		ReexecSteps:     stats.ReexecSteps,
		GlobalDigest:    fsio.Checksum(global),
		AcceptedWorkers: accepted,
	}
	p.stateBuf = diskState{Epoch: stats.Epoch + 1, Global: global, LastSeal: &seal}.appendBody(p.stateBuf[:0])
	p.fileBuf = fsio.AppendFile(p.fileBuf[:0], p.stateBuf)
	if err := p.fs.WriteFileAtomic(filepath.Join(p.cfg.Journal, stateFile), p.fileBuf); err != nil {
		return fmt.Errorf("pool seal: %w", err)
	}
	if err := p.logSeal(seal); err != nil {
		return fmt.Errorf("pool seal: %w", err)
	}
	return nil
}

// logSeal journals a seal record and makes it durable: the next epoch's task
// is announced on top of it.
func (p *Pool) logSeal(seal journal.Seal) error {
	if err := p.journal.LogSeal(seal); err != nil {
		return err
	}
	return p.journal.Sync()
}

// RunEpochs runs n epochs and returns the stats history.
func (p *Pool) RunEpochs(n int) ([]*EpochStats, error) {
	if n < 1 {
		return nil, errors.New("pool: need at least one epoch")
	}
	history := make([]*EpochStats, 0, n)
	for i := 0; i < n; i++ {
		s, err := p.RunEpoch()
		if err != nil {
			return nil, err
		}
		history = append(history, s)
	}
	return history, nil
}
