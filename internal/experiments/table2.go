package experiments

import (
	"fmt"
	"time"

	"rpol/internal/gpu"
	"rpol/internal/modelzoo"
	"rpol/internal/netsim"
)

// CostModelOptions parameterizes the paper-scale epoch cost model shared by
// Table II and Table III.
type CostModelOptions struct {
	// Samples is q (paper: 3); CheckpointEvery is the interval i (paper: 5).
	Samples         int
	CheckpointEvery int
	// Manager and Worker link capacities (paper: 10 Gbps / 100 Mbps).
	Manager, Worker netsim.LinkSpec
	// WorkerGPU runs worker training; ManagerGPU runs verification.
	WorkerGPU, ManagerGPU gpu.Profile
}

func (o *CostModelOptions) defaults() {
	if o.Samples <= 0 {
		o.Samples = 3
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 5
	}
	if o.Manager.UpBps == 0 {
		o.Manager = netsim.ManagerLink
	}
	if o.Worker.UpBps == 0 {
		o.Worker = netsim.WorkerLink
	}
	if o.WorkerGPU.TFLOPS == 0 {
		o.WorkerGPU = gpu.G3090
	}
	if o.ManagerGPU.TFLOPS == 0 {
		o.ManagerGPU = gpu.G3090
	}
}

// EpochCost is the paper-scale cost breakdown of one distributed epoch for
// a given scheme and pool size.
type EpochCost struct {
	Task    string
	Scheme  string
	Workers int

	// Wall-clock components.
	Download, Compute, Upload, VerifyComm time.Duration
	// Total is the epoch's wall time. Verification *re-execution* and the
	// manager's calibration probe are pipelined with the next epoch's
	// training on the manager's spare capacity (the paper notes manager-side
	// parallelism, Sec. VII-E), so they appear in the computation bill below
	// but not in Total.
	Total time.Duration

	// Resource bills for Table III.
	ManagerComp time.Duration // verification re-execution + calibration probe
	WorkerComp  time.Duration // one worker's training time
	CommBytes   int64         // total epoch traffic: result uploads + verification
	// CommBytesElided is CommBytes for a verifier that never pulls a leaf it
	// holds or can compute (ExpectedOpenings instead of the q × {2, 1} bound).
	CommBytesElided int64
	// StorageBytes is one worker's checkpoint archive (plus LSH projections
	// under v2).
	StorageBytes int64
}

// ExpectedOpenings is the number of checkpoint vectors a verifier pulls per
// submission, in expectation over its uniform choice of `samples` of the
// epoch's `intervals`, when it pulls each committed leaf at most once and
// never the two it can compute — leaf 0 is the distributed global model,
// leaf n is θ_t plus the submitted update. RPoLv1 needs every interior leaf
// next to a sampled interval: each of the n−1, unless neither neighbour is
// drawn. RPoLv2 needs each sampled interval's input, unless it is leaf 0
// (double-checks aside, as in ComputeEpochCost). The paper's accounting —
// q × 2 and q × 1, what ComputeEpochCost bills as CommBytes — is the upper
// bound both approach as the trace grows.
func ExpectedOpenings(scheme string, intervals, samples int) (float64, error) {
	if intervals < 1 || samples < 1 {
		return 0, fmt.Errorf("experiments: %d samples of %d intervals", samples, intervals)
	}
	n, q := float64(intervals), float64(min(samples, intervals))
	switch scheme {
	case "RPoLv1":
		if intervals == 1 {
			return 0, nil
		}
		return (n - 1) * (1 - (n-q)*(n-q-1)/(n*(n-1))), nil
	case "RPoLv2":
		return q * (1 - 1/n), nil
	}
	return 0, fmt.Errorf("experiments: no openings under scheme %q", scheme)
}

// ComputeEpochCost evaluates the cost model for one (task, scheme, pool
// size) cell. Scheme strings: "baseline", "RPoLv1", "RPoLv2".
func ComputeEpochCost(taskName, scheme string, workers int, opts CostModelOptions) (*EpochCost, error) {
	opts.defaults()
	spec, err := modelzoo.Get(taskName)
	if err != nil {
		return nil, err
	}
	if workers < 1 {
		return nil, fmt.Errorf("experiments: %d workers", workers)
	}
	workerDev, err := gpu.NewDevice(opts.WorkerGPU, 1)
	if err != nil {
		return nil, err
	}
	managerDev, err := gpu.NewDevice(opts.ManagerGPU, 2)
	if err != nil {
		return nil, err
	}

	modelBytes := spec.ModelBytes
	c := &EpochCost{Task: taskName, Scheme: scheme, Workers: workers}

	// Baseline epoch: global model fan-out, shard training, update fan-in.
	c.Download, err = netsim.FanOutTime(workers, modelBytes, opts.Manager, opts.Worker)
	if err != nil {
		return nil, err
	}
	c.Compute = workerDev.ExecTime(spec.FLOPsPerShardEpoch(workers))
	c.WorkerComp = c.Compute
	c.Upload, err = netsim.FanInTime(workers, modelBytes, opts.Manager, opts.Worker)
	if err != nil {
		return nil, err
	}
	// Traffic bill counts result uploads (the paper's Table III baseline of
	// 8.8 GB for 100 ResNet50 workers matches uploads only; the global
	// model download is amortized/cached).
	c.CommBytes = int64(workers) * modelBytes
	c.CommBytesElided = c.CommBytes

	steps := spec.StepsPerShardEpoch(workers)
	numCheckpoints := steps/opts.CheckpointEvery + 1
	if steps%opts.CheckpointEvery != 0 {
		numCheckpoints++
	}

	switch scheme {
	case "baseline":
		// Workers keep only the current model.
		c.StorageBytes = modelBytes
	case "RPoLv1", "RPoLv2":
		// Workers archive every checkpoint for proof serving.
		c.StorageBytes = int64(numCheckpoints) * modelBytes

		// Verification communication: q samples per worker; v1 ships input
		// and output weights, v2 ships input weights plus a digest
		// (double-checks are rare enough to ignore at this scale,
		// Sec. VII-D).
		transfersPerSample := int64(2)
		if scheme == "RPoLv2" {
			transfersPerSample = 1
		}
		verifyBytesPerWorker := int64(opts.Samples) * transfersPerSample * modelBytes
		c.VerifyComm, err = netsim.FanInTime(workers, verifyBytesPerWorker, opts.Manager, opts.Worker)
		if err != nil {
			return nil, err
		}
		c.CommBytes += int64(workers) * verifyBytesPerWorker
		openings, err := ExpectedOpenings(scheme, numCheckpoints-1, opts.Samples)
		if err != nil {
			return nil, err
		}
		c.CommBytesElided += int64(float64(workers) * openings * float64(modelBytes))

		// Manager re-execution: q × interval steps per worker.
		flopsPerStep := spec.FLOPsPerExample * float64(spec.BatchSize)
		reexecFLOPs := float64(workers) * float64(opts.Samples) * float64(opts.CheckpointEvery) * flopsPerStep
		c.ManagerComp = managerDev.ExecTime(reexecFLOPs)

		if scheme == "RPoLv2" {
			// Calibration probe: the manager trains its own 1/(n+1) shard
			// twice (once per top-2 GPU; runs are parallel across the two
			// devices but both bill compute time).
			probe := managerDev.ExecTime(spec.FLOPsPerShardEpoch(workers + 1))
			c.ManagerComp += 2 * probe
			// LSH projections a ∈ R^(k·l × d) stored as fp32 alongside the
			// checkpoints — the paper's ≈30 % extra storage for
			// "LSH-related parameters".
			const kLsh = 16
			c.StorageBytes += int64(kLsh) * int64(spec.ParamCount) * 4
		}
	default:
		return nil, fmt.Errorf("experiments: unknown scheme %q", scheme)
	}

	c.Total = c.Download + c.Compute + c.Upload + c.VerifyComm
	return c, nil
}

// Table2Result reproduces Table II: one-epoch training time per scheme.
type Table2Result struct {
	Cells []EpochCost
	Table Table
}

// Table2Options configures the epoch-time table.
type Table2Options struct {
	Tasks   []string
	Workers []int
	Cost    CostModelOptions
}

func (o *Table2Options) defaults() {
	if len(o.Tasks) == 0 {
		o.Tasks = []string{"resnet50-imagenet", "vgg16-imagenet"}
	}
	if len(o.Workers) == 0 {
		o.Workers = []int{10, 100}
	}
}

// Table2 computes the one-epoch training time of baseline / RPoLv1 / RPoLv2
// at paper scale.
func Table2(opts Table2Options) (*Table2Result, error) {
	opts.defaults()
	res := &Table2Result{Table: Table{
		Caption: "Table II — one-epoch training time (paper-scale cost model)",
		Headers: []string{"task", "workers", "baseline (s)", "RPoLv1 (s)", "RPoLv2 (s)"},
	}}
	for _, task := range opts.Tasks {
		for _, n := range opts.Workers {
			row := []any{task, n}
			for _, scheme := range []string{"baseline", "RPoLv1", "RPoLv2"} {
				cell, err := ComputeEpochCost(task, scheme, n, opts.Cost)
				if err != nil {
					return nil, err
				}
				res.Cells = append(res.Cells, *cell)
				row = append(row, cell.Total.Seconds())
			}
			res.Table.Add(row...)
		}
	}
	return res, nil
}
