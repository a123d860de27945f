package rpol

import (
	"io"
	"time"

	"rpol/internal/blockchain"
	"rpol/internal/economics"
	"rpol/internal/experiments"
	"rpol/internal/lsh"
	"rpol/internal/mining"
	"rpol/internal/modelzoo"
	"rpol/internal/obs"
	"rpol/internal/parallel"
	"rpol/internal/pool"
	"rpol/internal/rpol"
)

// Scheme selects the verification variant: the insecure baseline, RPoLv1
// (raw-weight verification), or RPoLv2 (LSH-optimized verification).
type Scheme = rpol.Scheme

// Verification schemes.
const (
	SchemeBaseline = rpol.SchemeBaseline
	SchemeV1       = rpol.SchemeV1
	SchemeV2       = rpol.SchemeV2
)

// PoolConfig describes a mining-pool simulation: the task, the verification
// scheme, the pool size, and the adversary mix.
type PoolConfig = pool.Config

// Pool is a runnable mining pool of honest and adversarial workers
// coordinated by an RPoL-verifying manager.
type Pool = pool.Pool

// EpochStats reports one coordinated epoch: global-model test accuracy,
// acceptance and detection counts, calibration, and verification traffic.
type EpochStats = pool.EpochStats

// Role is a worker's ground-truth behaviour (honest, replay attacker,
// spoofing attacker).
type Role = pool.Role

// Worker roles.
const (
	RoleHonest = pool.RoleHonest
	RoleAdv1   = pool.RoleAdv1
	RoleAdv2   = pool.RoleAdv2
)

// NewPool builds a mining pool from the configuration. The same seed always
// yields an identical pool and an identical run.
func NewPool(cfg PoolConfig) (*Pool, error) { return pool.New(cfg) }

// Blockchain and mining-competition types: the PoUW substrate the pool
// competes in (Sec. III-A) and the end-to-end workflow of Fig. 2.
type (
	// MiningTask is a published PoUW training task.
	MiningTask = blockchain.Task
	// Chain is the append-only block chain.
	Chain = blockchain.Chain
	// Wallet is a consensus node's signing identity.
	Wallet = blockchain.Wallet
	// Contender is one competing mining pool.
	Contender = mining.Contender
	// CompetitionConfig parameterizes one mined block's competition.
	CompetitionConfig = mining.CompetitionConfig
	// CompetitionResult reports the winner, block, and reward settlement.
	CompetitionResult = mining.Result
)

// NewChain starts a chain at its genesis block.
func NewChain() *Chain { return blockchain.NewChain() }

// RunCompetition executes a full PoUW competition: contending pools train
// (with their own verification policies), propose models, and consensus
// elects the best generalizer and settles its reward.
func RunCompetition(cfg CompetitionConfig, contenders []Contender, chain *Chain) (*CompetitionResult, error) {
	return mining.Run(cfg, contenders, chain)
}

// Calibration is one epoch's adaptive LSH calibration: the α/β thresholds
// derived from measured reproduction errors and the optimized LSH
// parameters.
type Calibration = rpol.Calibration

// Observability types: the stdlib-only metrics registry and span tracer the
// protocol hot paths report through, plus the per-phase cost breakdown each
// epoch's EpochStats/EpochReport carries.
type (
	// Observer bundles a metrics Registry and a span Tracer; a nil Observer
	// (and nil instruments) no-op, so instrumentation is free when disabled.
	Observer = obs.Observer
	// Registry holds named counters, gauges, and histograms with
	// snapshot/reset and text/JSON exposition.
	Registry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a Registry's values.
	MetricsSnapshot = obs.Snapshot
	// Tracer emits span start/end events as JSONL to a sink.
	Tracer = obs.Tracer
	// Clock supplies monotonic timestamps to a Tracer; the deterministic
	// SimClock is the default, WallClock is opt-in.
	Clock = obs.Clock
	// PhaseTotals is one protocol phase's accumulated cost.
	PhaseTotals = obs.PhaseTotals
	// PhaseBreakdown maps protocol phase names to their costs for one epoch.
	PhaseBreakdown = obs.PhaseBreakdown
	// EpochReport is the manager-level epoch outcome, including Phases.
	EpochReport = rpol.EpochReport
)

// NewObserver bundles a registry and tracer into an Observer.
func NewObserver(reg *Registry, tr *Tracer) *Observer { return obs.NewObserver(reg, tr) }

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewTracer writes span events as JSON lines to w, timestamped by clock
// (nil clock selects a deterministic SimClock).
func NewTracer(w io.Writer, clock Clock) *Tracer { return obs.NewTracer(w, clock) }

// NewSimClock returns a deterministic logical clock advancing by tick per
// reading (tick <= 0 selects 1µs).
func NewSimClock(tick time.Duration) Clock { return obs.NewSimClock(tick) }

// NewWallClock returns a monotonic wall-time clock.
func NewWallClock() Clock { return obs.NewWallClock() }

// SetDefaultObserver installs o as the process-wide default observer that
// pools and managers constructed without an explicit Observer fall back to.
func SetDefaultObserver(o *Observer) { obs.SetDefault(o) }

// SetDefaultWorkers sets the process's one compute setting: every training
// runtime the process builds afterwards spreads its kernels over n
// goroutines (n <= 0 runs them on the calling goroutine). It changes how the
// process computes, never what: every bit, verdict and byte is the same at
// every n.
func SetDefaultWorkers(n int) { parallel.SetDefaultWorkers(n) }

// LSHParams are the tunable {r, k, l} of the p-stable LSH family.
type LSHParams = lsh.Params

// TaskSpec names a DNN task: the runnable proxy plus the paper-scale cost
// metadata (true parameter counts, model bytes, per-example FLOPs).
type TaskSpec = modelzoo.TaskSpec

// Tasks returns the registry of named tasks from the paper's evaluation.
func Tasks() map[string]TaskSpec { return modelzoo.Registry() }

// Task returns the named task spec.
func Task(name string) (TaskSpec, error) { return modelzoo.Get(name) }

// SoundnessError returns the probability that an attacker with honesty
// ratio hA evades q sampled checkpoints (Theorem 2).
func SoundnessError(hA, prLshBeta float64, q int) (float64, error) {
	return economics.SoundnessError(hA, prLshBeta, q)
}

// SamplesForSoundness returns the minimal sample count q for a target
// soundness error (Eq. 8).
func SamplesForSoundness(prErr, hA, prLshBeta float64) (int, error) {
	return economics.SamplesForSoundness(prErr, hA, prLshBeta)
}

// SamplesForNegativeGain returns the minimal q that makes attacking
// economically irrational (Eq. 11).
func SamplesForNegativeGain(hA, cTrain, cSpoof, prLshBeta float64) (int, error) {
	return economics.SamplesForNegativeGain(hA, cTrain, cSpoof, prLshBeta)
}

// Experiment result and option types, re-exported so downstream users can
// regenerate the paper's tables and figures programmatically. Each runner
// returns a structured result with a renderable text table.
type (
	// Fig1Options configures the LSH match-probability sweep (Fig. 1).
	Fig1Options = experiments.Fig1Options
	// Fig3Options configures the AMLayer accuracy comparison (Fig. 3).
	Fig3Options = experiments.Fig3Options
	// Table1Options configures the AMLayer evaluation (Table I).
	Table1Options = experiments.Table1Options
	// Fig4Options configures the reproduction-error study (Fig. 4).
	Fig4Options = experiments.Fig4Options
	// Fig5Options configures the adaptive-calibration evaluation (Fig. 5).
	Fig5Options = experiments.Fig5Options
	// Fig6Options configures the attack-resilience sweep (Fig. 6).
	Fig6Options = experiments.Fig6Options
	// Table2Options configures the epoch-time cost model (Table II).
	Table2Options = experiments.Table2Options
	// Table3Options configures the overhead breakdown (Table III).
	Table3Options = experiments.Table3Options
)

// Fig1 sweeps LSH matching probability against distance (Fig. 1).
func Fig1(opts Fig1Options) (*experiments.Fig1Result, error) { return experiments.Fig1(opts) }

// Fig3 compares accuracy curves with and without the AMLayer (Fig. 3).
func Fig3(opts Fig3Options) (*experiments.Fig3Result, error) { return experiments.Fig3(opts) }

// Table1 evaluates AMLayer cost and the address-replacing attack (Table I).
func Table1(opts Table1Options) (*experiments.Table1Result, error) { return experiments.Table1(opts) }

// Fig4 measures reproduction errors across GPU pairs and shards (Fig. 4).
func Fig4(opts Fig4Options) (*experiments.Fig4Result, error) { return experiments.Fig4(opts) }

// Fig5 evaluates the adaptive LSH calibration epoch by epoch (Fig. 5).
func Fig5(opts Fig5Options) (*experiments.Fig5Result, error) { return experiments.Fig5(opts) }

// Fig6 sweeps attacks × schemes × adversary fractions on live pools
// (Fig. 6).
func Fig6(opts Fig6Options) (*experiments.Fig6Result, error) { return experiments.Fig6(opts) }

// Table2 computes paper-scale one-epoch training times (Table II).
func Table2(opts Table2Options) (*experiments.Table2Result, error) { return experiments.Table2(opts) }

// Table3 computes paper-scale per-epoch resource and capital costs
// (Table III).
func Table3(opts Table3Options) (*experiments.Table3Result, error) { return experiments.Table3(opts) }

// Soundness tabulates the Sec. VI sample-count analysis.
func Soundness(opts experiments.SoundnessOptions) (*experiments.SoundnessResult, error) {
	return experiments.Soundness(opts)
}
