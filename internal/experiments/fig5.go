package experiments

import (
	"fmt"

	"rpol/internal/adversary"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/modelzoo"
	"rpol/internal/prf"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// Fig5Options configures the adaptive-calibration evaluation.
type Fig5Options struct {
	// Tasks defaults to the paper's four: ResNet18/50 × CIFAR-10/100.
	Tasks []string
	// Epochs of the iterative learning process to calibrate and measure.
	Epochs int
	// StepsPerEpoch and CheckpointEvery of each epoch.
	StepsPerEpoch   int
	CheckpointEvery int
	// KLsh is the LSH budget (paper: 16); BetaFactor is x in β = x·α
	// (paper: 5).
	KLsh       int
	BetaFactor float64
	// SpoofLambda is Adv's Eq. (12) coefficient.
	SpoofLambda float64
	// Repeats re-runs the honest/spoof measurement with fresh hardware
	// seeds and aggregates the rates (the paper repeats 50×; the default of
	// 1 keeps the quick runs fast).
	Repeats int
	Seed    int64
}

func (o *Fig5Options) defaults() {
	if len(o.Tasks) == 0 {
		o.Tasks = []string{
			"resnet18-cifar10", "resnet50-cifar100",
			"resnet18-cifar100", "resnet50-cifar10",
		}
	}
	if o.Epochs <= 0 {
		o.Epochs = 4
	}
	if o.StepsPerEpoch <= 0 {
		o.StepsPerEpoch = 15
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 5
	}
	if o.KLsh <= 0 {
		o.KLsh = 16
	}
	if o.BetaFactor <= 0 {
		o.BetaFactor = 5
	}
	if o.SpoofLambda == 0 {
		o.SpoofLambda = 0.5
	}
	if o.Repeats <= 0 {
		o.Repeats = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Fig5Row is one (task, epoch) measurement.
type Fig5Row struct {
	Task  string
	Epoch int
	// MaxReproError is the largest honest reproduction error measured this
	// epoch; MinSpoofDistance the smallest spoof distance.
	MaxReproError    float64
	MinSpoofDistance float64
	Alpha, Beta      float64
	// FNR is the fraction of honest checkpoints that failed LSH matching;
	// FPR the fraction of spoofed checkpoints that passed.
	FNR, FPR float64
	// BetaAboveHonest records the paper's key separation: β exceeds every
	// honest reproduction error while staying below every spoof distance.
	BetaAboveHonest bool
	BetaBelowSpoof  bool
}

// Fig5Result reproduces Fig. 5.
type Fig5Result struct {
	Rows  []Fig5Row
	Table Table
}

// Fig5 runs the adaptive LSH calibration through several epochs of each
// task, measuring honest reproduction errors, Adv's spoof distances, the
// α/β settings, and the resulting LSH FNR/FPR.
func Fig5(opts Fig5Options) (*Fig5Result, error) {
	opts.defaults()
	res := &Fig5Result{Table: Table{
		Caption: "Fig. 5 — adaptive calibration: repro errors, spoof distances, α, β, FNR, FPR",
		Headers: []string{"task", "epoch", "max repro", "min spoof", "alpha", "beta", "FNR", "FPR"},
	}}
	for _, name := range opts.Tasks {
		if err := fig5Task(name, opts, res); err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", name, err)
		}
	}
	return res, nil
}

func fig5Task(name string, opts Fig5Options, res *Fig5Result) error {
	spec, err := modelzoo.Get(name)
	if err != nil {
		return err
	}
	_, train, _, err := spec.BuildProxy(opts.Seed)
	if err != nil {
		return err
	}
	// Two i.i.d. halves: one for the manager's calibration probe, one for
	// worker behaviour (Sec. VII-D).
	halves, err := train.Partition(2)
	if err != nil {
		return err
	}
	probeShard, workShard := halves[0], halves[1]

	calNet, err := spec.BuildProxyNet(opts.Seed + 1)
	if err != nil {
		return err
	}
	workerNet, err := spec.BuildProxyNet(opts.Seed + 1)
	if err != nil {
		return err
	}
	verifyNet, err := spec.BuildProxyNet(opts.Seed + 1)
	if err != nil {
		return err
	}
	verifyDevice, err := gpu.NewDevice(gpu.G3090, opts.Seed+500)
	if err != nil {
		return err
	}
	global := calNet.ParamVector()

	for epoch := 0; epoch < opts.Epochs; epoch++ {
		p := rpol.TaskParams{
			Epoch:           epoch,
			Global:          global.Clone(),
			Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: spec.ProxyBatchSize},
			Nonce:           prf.DeriveNonce([]byte("fig5"), name, epoch),
			Steps:           opts.StepsPerEpoch,
			CheckpointEvery: opts.CheckpointEvery,
		}

		// 1. Manager calibration on the probe shard with the top-2 GPUs.
		calibrator := &rpol.Calibrator{
			Net: calNet, Shard: probeShard,
			XFactor: opts.BetaFactor, KLsh: opts.KLsh,
		}
		seedBase := opts.Seed + int64(epoch)*17
		cal, fam, err := calibrator.Calibrate(p, gpu.G3090, gpu.GA10,
			[2]int64{seedBase + 1, seedBase + 2}, seedBase+3)
		if err != nil {
			return err
		}

		row := Fig5Row{Task: name, Epoch: epoch, Alpha: cal.Alpha, Beta: cal.Beta,
			MinSpoofDistance: -1, BetaAboveHonest: true, BetaBelowSpoof: true}
		honestChecked, honestMisses := 0, 0
		spoofChecked, spoofPasses := 0, 0
		var firstHonest *rpol.Trace

		for rep := 0; rep < opts.Repeats; rep++ {
			repSeed := seedBase + int64(rep)*1000

			// 2. Honest worker epoch on GA10 (the worst-case honest
			// hardware); a fresh run seed per repetition.
			workerDevice, err := gpu.NewDevice(gpu.GA10, repSeed+4)
			if err != nil {
				return err
			}
			workerTrainer := &rpol.Trainer{Net: workerNet, Shard: workShard, Device: workerDevice}
			honest, err := workerTrainer.RunEpoch(p)
			if err != nil {
				return err
			}
			if firstHonest == nil {
				firstHonest = honest
			}

			// 3. Manager re-executes every interval on G3090, measuring
			// honest reproduction distances and LSH match failures.
			verifier := &rpol.Trainer{Net: verifyNet, Shard: workShard, Device: verifyDevice}
			reexecs := make([]tensor.Vector, 0, len(honest.Checkpoints)-1)
			for c := 0; c+1 < len(honest.Checkpoints); c++ {
				startStep, steps, err := honest.IntervalSteps(c)
				if err != nil {
					return err
				}
				reexec, err := verifier.ExecuteInterval(nil, honest.Checkpoints[c], startStep, steps, p.Hyper, p.Nonce)
				if err != nil {
					return err
				}
				reexecs = append(reexecs, reexec)
				dist, err := tensor.Distance(reexec, honest.Checkpoints[c+1])
				if err != nil {
					return err
				}
				if dist > row.MaxReproError {
					row.MaxReproError = dist
				}
				if dist >= cal.Beta {
					row.BetaAboveHonest = false
				}
				committed, err := fam.Hash(honest.Checkpoints[c+1])
				if err != nil {
					return err
				}
				mine, err := fam.Hash(reexec)
				if err != nil {
					return err
				}
				honestChecked++
				if !lsh.Match(mine, committed) {
					honestMisses++
				}
			}

			// 4. Adv spoofs the last two-thirds of the checkpoints from the
			// honest prefix (Sec. VII-D) and we measure spoof distances and
			// LSH pass rate against the manager's re-executions.
			prefix := (len(honest.Checkpoints) + 2) / 3
			if prefix < 2 {
				prefix = 2
			}
			spoofHist := make([]tensor.Vector, prefix)
			copy(spoofHist, honest.Checkpoints[:prefix])
			for c := prefix - 1; c+1 < len(honest.Checkpoints); c++ {
				spoofed, err := adversary.Spoof(nil, nil, spoofHist, opts.SpoofLambda)
				if err != nil {
					return err
				}
				spoofHist = append(spoofHist, spoofed)
				dist, err := tensor.Distance(spoofed, reexecs[c])
				if err != nil {
					return err
				}
				if row.MinSpoofDistance < 0 || dist < row.MinSpoofDistance {
					row.MinSpoofDistance = dist
				}
				if dist <= cal.Beta {
					row.BetaBelowSpoof = false
				}
				spoofDigest, err := fam.Hash(spoofed)
				if err != nil {
					return err
				}
				reexecDigest, err := fam.Hash(reexecs[c])
				if err != nil {
					return err
				}
				spoofChecked++
				if lsh.Match(spoofDigest, reexecDigest) {
					spoofPasses++
				}
			}
		}
		if honestChecked > 0 {
			row.FNR = float64(honestMisses) / float64(honestChecked)
		}
		if spoofChecked > 0 {
			row.FPR = float64(spoofPasses) / float64(spoofChecked)
		}

		res.Rows = append(res.Rows, row)
		res.Table.Add(name, epoch, row.MaxReproError, row.MinSpoofDistance,
			row.Alpha, row.Beta, row.FNR, row.FPR)

		// Advance the global model along the first honest trajectory.
		global = firstHonest.Final()
	}
	return nil
}
