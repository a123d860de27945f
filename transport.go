package rpol

import (
	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/netsim"
	"rpol/internal/nn"
	"rpol/internal/rpol"
	"rpol/internal/wire"
)

// This file exposes the building blocks for custom and distributed
// deployments: the protocol roles (manager, workers, verifiers), the data
// substrate, and the TCP message hub with the wire adapters that let the
// unmodified manager drive workers behind a network.

// Protocol roles and data types.
type (
	// Manager coordinates a pool of workers: calibration, task
	// distribution, commitment collection, sampling-based verification,
	// and aggregation.
	Manager = rpol.Manager
	// ManagerConfig assembles a Manager.
	ManagerConfig = rpol.ManagerConfig
	// ProtocolWorker is the worker interface the manager drives; implement
	// it for custom participants.
	ProtocolWorker = rpol.Worker
	// HonestWorker is the protocol-abiding worker implementation.
	HonestWorker = rpol.HonestWorker
	// TaskParams is one epoch's training assignment.
	TaskParams = rpol.TaskParams
	// Hyper bundles the training hyper-parameters the manager distributes.
	Hyper = rpol.Hyper
	// EpochResult is a worker's submission for one epoch.
	EpochResult = rpol.EpochResult
	// VerifyOutcome reports one submission's verification.
	VerifyOutcome = rpol.VerifyOutcome
	// Dataset is an indexable labelled dataset.
	Dataset = dataset.Dataset
	// GPUProfile describes one accelerator model.
	GPUProfile = gpu.Profile
	// Network is a trainable model (the internal/nn sequential stack).
	Network = nn.Network
)

// Message fabric.
type (
	// TCPHub is the metered message hub the manager and workers join over
	// TCP.
	TCPHub = netsim.TCPHub
	// TCPEndpoint is a client connection to a TCPHub.
	TCPEndpoint = netsim.TCPEndpoint
	// ManagerPort is the manager's endpoint shared by its remote-worker
	// proxies, each of which receives its worker's replies on a queue of
	// its own, so calls to different workers may run concurrently.
	ManagerPort = wire.ManagerPort
	// RemoteWorker proxies a worker living behind the fabric; it satisfies
	// ProtocolWorker.
	RemoteWorker = wire.RemoteWorker
	// WorkerServer hosts a worker behind its hub endpoint.
	WorkerServer = wire.WorkerServer
)

// Fault injection and tolerance.
type (
	// FaultPlan is a seeded, deterministic fault-injection schedule for the
	// message hub: per-link drops, delays, and partitions plus
	// per-worker crash-restart windows, replayed bit-identically for the
	// same seed.
	FaultPlan = netsim.FaultPlan
	// FaultConfig parameterizes a FaultPlan (rates, delay bound, window and
	// cycle lengths).
	FaultConfig = netsim.FaultConfig
	// RetryPolicy bounds how often a ManagerPort resends a request whose
	// exchange the hub reported lost to its fault plan; exhausted attempts
	// fail with an error wrapping ErrWorkerUnavailable.
	RetryPolicy = wire.RetryPolicy
	// Outcome classifies a worker's epoch: accepted, rejected, or absent.
	Outcome = rpol.Outcome
)

// Outcome values.
const (
	OutcomeAccepted = rpol.OutcomeAccepted
	OutcomeRejected = rpol.OutcomeRejected
	OutcomeAbsent   = rpol.OutcomeAbsent
)

// ErrWorkerUnavailable marks workers the transport could not reach (every
// attempt of an exchange lost); the manager records them as OutcomeAbsent,
// whether the loss came before their submission or during their challenge,
// instead of treating them as adversarial.
var ErrWorkerUnavailable = rpol.ErrWorkerUnavailable

// NewFaultPlan derives a deterministic fault plan from seed; use
// DefaultFaultConfig for the standard moderate fault mix.
func NewFaultPlan(seed int64, cfg FaultConfig) *FaultPlan { return netsim.NewFaultPlan(seed, cfg) }

// DefaultFaultConfig returns the moderate fault mix the -faultseed flag
// applies.
func DefaultFaultConfig() FaultConfig { return netsim.DefaultFaultConfig() }

// NewManager builds a pool manager over pre-constructed workers. See
// rpol.ManagerConfig for the knobs (scheme, sampling count q, calibration
// factors, collection).
func NewManager(cfg ManagerConfig, net *Network, workers []ProtocolWorker, shards map[string]*Dataset, probe *Dataset) (*Manager, error) {
	return rpol.NewManager(cfg, net, workers, shards, probe)
}

// NewHonestWorker builds a protocol-abiding worker on the given simulated
// GPU profile.
func NewHonestWorker(id string, profile GPUProfile, runSeed int64, net *Network, shard *Dataset) (*HonestWorker, error) {
	return rpol.NewHonestWorker(id, profile, runSeed, net, shard)
}

// NewTCPHub starts a TCP message hub on addr (e.g. "127.0.0.1:0").
func NewTCPHub(addr string) (*TCPHub, error) { return netsim.NewTCPHub(addr) }

// DialHub connects to a TCP hub and registers under name.
func DialHub(addr, name string) (*TCPEndpoint, error) { return netsim.DialHub(addr, name) }

// NewManagerPort wraps the manager's connected hub endpoint as its port.
func NewManagerPort(ep *TCPEndpoint) (*ManagerPort, error) { return wire.NewManagerPort(ep) }

// NewRemoteWorker builds a proxy to the worker registered as id.
func NewRemoteWorker(id string, profile GPUProfile, port *ManagerPort) (*RemoteWorker, error) {
	return wire.NewRemoteWorker(id, profile, port)
}

// NewWorkerServer hosts a worker behind its connected hub endpoint.
func NewWorkerServer(ep *TCPEndpoint, worker ProtocolWorker) (*WorkerServer, error) {
	return wire.NewWorkerServer(ep, worker)
}

// GPUProfiles returns the paper's four simulated accelerator profiles in
// descending performance order.
func GPUProfiles() []GPUProfile { return gpu.Profiles() }
