// Command rpolverify records and verifies standalone proofs of learning.
//
// Record an honest or adversarial training trace:
//
//	rpolverify -record trace.json -mode honest
//	rpolverify -record trace.json -mode adv2
//
// Verify a recorded trace (the verifier derives the task — θ_t, shard,
// schedule and calibration — from the trace's task name, seed and step
// count, and refuses a file whose recorded parameters are not that task's):
//
//	rpolverify -verify trace.json -scheme v2
//
// The exit status is 0 when the trace is accepted, 1 after printing
// "VERDICT: REJECTED" when it is rejected or when anything fails, and 2 on a
// usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rpol/internal/adversary"
	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/modelzoo"
	"rpol/internal/nn"
	"rpol/internal/prf"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
	"rpol/internal/tracefile"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the command line args and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rpolverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		record = fs.String("record", "", "record a trace to this path")
		verify = fs.String("verify", "", "verify the trace at this path")
		task   = fs.String("task", "resnet18-cifar10", "modelzoo task (record)")
		mode   = fs.String("mode", "honest", "recording mode: honest | adv1 | adv2")
		scheme = fs.String("scheme", "v2", "verification scheme: v1 | v2")
		steps  = fs.Int("steps", 15, "training steps (record)")
		seed   = fs.Int64("seed", 1, "task seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var err error
	switch {
	case *record != "" && *verify != "":
		err = errors.New("choose either -record or -verify")
	case *record != "":
		err = recordTrace(stdout, *record, *task, *mode, *steps, *seed)
	case *verify != "":
		var outcome *rpol.VerifyOutcome
		if outcome, err = verifyTrace(stdout, *verify, *scheme); err == nil && !outcome.Accepted {
			return 1
		}
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "rpolverify:", err)
		return 1
	}
	return 0
}

// task is what a task name, seed and step count determine, for recorder and
// verifier alike: the proxy network, the (probe, worker) data split and the
// epoch's parameters, with θ_t the network's initial weights.
type task struct {
	spec        modelzoo.TaskSpec
	net         *nn.Network
	probe, work *dataset.Dataset
	params      rpol.TaskParams
}

// deriveTask builds the task the name, seed and step count determine.
func deriveTask(name string, seed int64, steps int) (*task, error) {
	spec, err := modelzoo.Get(name)
	if err != nil {
		return nil, err
	}
	_, train, _, err := spec.BuildProxy(seed)
	if err != nil {
		return nil, err
	}
	halves, err := train.Partition(2)
	if err != nil {
		return nil, err
	}
	net, err := spec.BuildProxyNet(seed + 1)
	if err != nil {
		return nil, err
	}
	p := rpol.TaskParams{
		Global:          net.ParamVector(),
		Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: spec.ProxyBatchSize},
		Nonce:           prf.DeriveNonce([]byte("rpolverify"), name, 0),
		Steps:           steps,
		CheckpointEvery: 5,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &task{spec: spec, net: net, probe: halves[0], work: halves[1], params: p}, nil
}

func recordTrace(out io.Writer, path, taskName, mode string, steps int, seed int64) error {
	t, err := deriveTask(taskName, seed, steps)
	if err != nil {
		return err
	}
	var trace *rpol.Trace
	switch mode {
	case "honest":
		worker, err := rpol.NewHonestWorker("recorded", gpu.GA10, seed+100, t.net, t.work)
		if err != nil {
			return err
		}
		if _, err := worker.RunEpoch(t.params); err != nil {
			return err
		}
		trace = worker.LastTrace()
	case "adv1":
		adv := adversary.NewAdv1("recorded", gpu.GT4, t.work.Len())
		if _, err := adv.RunEpoch(t.params); err != nil {
			return err
		}
		trace = adv.LastTrace()
	case "adv2":
		adv, err := adversary.NewAdv2("recorded", gpu.GA10, seed+100, t.net, t.work, 0.1, 0.5)
		if err != nil {
			return err
		}
		if _, err := adv.RunEpoch(t.params); err != nil {
			return err
		}
		trace = adv.LastTrace()
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}

	file, err := tracefile.FromTrace(taskName, seed, "recorded", gpu.GA10.Name, t.params, trace)
	if err != nil {
		return err
	}
	if err := file.Write(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "recorded %s trace (%d checkpoints) to %s\n", mode, len(trace.Checkpoints), path)
	return nil
}

// verifyTrace verifies the trace at path as the manager would the
// submission of a worker that trained the task the file names, prints the
// verdict and returns the outcome.
func verifyTrace(out io.Writer, path, schemeName string) (*rpol.VerifyOutcome, error) {
	var scheme rpol.Scheme
	switch schemeName {
	case "v1":
		scheme = rpol.SchemeV1
	case "v2":
		scheme = rpol.SchemeV2
	default:
		return nil, fmt.Errorf("unknown scheme %q", schemeName)
	}
	file, err := tracefile.Read(path)
	if err != nil {
		return nil, err
	}
	t, err := deriveTask(file.Task, file.Seed, file.Params.Steps)
	if err != nil {
		return nil, err
	}
	if err := file.CheckTask(t.params); err != nil {
		return nil, err
	}
	trace, err := file.Trace()
	if err != nil {
		return nil, err
	}
	p := t.params

	// Calibrate β (and the LSH family under v2) exactly as the manager
	// would before the epoch.
	calibrator := &rpol.Calibrator{Net: t.net, Shard: t.probe, XFactor: 5, KLsh: 16}
	cal, fam, err := calibrator.Calibrate(p, gpu.G3090, gpu.GA10,
		[2]int64{file.Seed + 11, file.Seed + 12}, file.Seed+13)
	if err != nil {
		return nil, err
	}
	if scheme == rpol.SchemeV2 {
		p.LSH = fam
	}

	// Rebuild the submission from the recorded trace. Binding the final
	// checkpoint reproduces exactly what the worker committed (see
	// rpol.BindFinalCheckpoint). The decoded trace owns each of its
	// checkpoints, so the final one is bound in place.
	update, err := rpol.BindFinalCheckpoint(trace, p.Global, nil)
	if err != nil {
		return nil, err
	}
	ec, err := rpol.CommitTrace(nil, trace.Checkpoints, p.LSH)
	if err != nil {
		return nil, err
	}
	result := &rpol.EpochResult{
		WorkerID:       file.WorkerID,
		Epoch:          p.Epoch,
		Update:         update,
		DataSize:       t.work.Len(),
		NumCheckpoints: len(trace.Checkpoints),
	}
	ec.Apply(result)

	verifyNet, err := t.spec.BuildProxyNet(file.Seed + 1)
	if err != nil {
		return nil, err
	}
	device, err := gpu.NewDevice(gpu.G3090, file.Seed+500)
	if err != nil {
		return nil, err
	}
	verifier := &rpol.Verifier{
		Scheme:  scheme,
		Net:     verifyNet,
		Device:  device,
		Beta:    cal.Beta,
		LSH:     fam,
		Samples: 3,
		Sampler: tensor.NewRNG(file.Seed + 600),
	}
	outcome, err := verifier.VerifySubmission(ec, t.work, result, p)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(out, "trace: task=%s worker=%s gpu=%s checkpoints=%d\n",
		file.Task, file.WorkerID, file.GPU, len(trace.Checkpoints))
	fmt.Fprintf(out, "calibration: α=%.3g β=%.3g lsh={r=%.3g,k=%d,l=%d}\n",
		cal.Alpha, cal.Beta, cal.Params.R, cal.Params.K, cal.Params.L)
	fmt.Fprintf(out, "sampled checkpoints: %v\n", outcome.SampledCheckpoints)
	if outcome.Accepted {
		fmt.Fprintf(out, "VERDICT: ACCEPTED (LSH misses %d, double-checks %d, %d bytes of proofs)\n",
			outcome.LSHMisses, outcome.DoubleChecks, outcome.CommBytes)
	} else {
		fmt.Fprintf(out, "VERDICT: REJECTED — %s\n", outcome.FailReason.Error())
	}
	return outcome, nil
}
