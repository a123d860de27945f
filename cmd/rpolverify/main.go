// Command rpolverify records and verifies standalone proofs of learning.
//
// Record an honest or adversarial training trace:
//
//	rpolverify -record trace.json -mode honest
//	rpolverify -record trace.json -mode adv2
//
// Verify a recorded trace (the verifier reconstructs the task, shard, and
// calibration deterministically from the trace's task name and seed):
//
//	rpolverify -verify trace.json -scheme v2
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"rpol/internal/adversary"
	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/modelzoo"
	"rpol/internal/prf"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
	"rpol/internal/tracefile"
)

func main() {
	var (
		record = flag.String("record", "", "record a trace to this path")
		verify = flag.String("verify", "", "verify the trace at this path")
		task   = flag.String("task", "resnet18-cifar10", "modelzoo task (record)")
		mode   = flag.String("mode", "honest", "recording mode: honest | adv1 | adv2")
		scheme = flag.String("scheme", "v2", "verification scheme: v1 | v2")
		steps  = flag.Int("steps", 15, "training steps (record)")
		seed   = flag.Int64("seed", 1, "task seed")
	)
	flag.Parse()
	var err error
	switch {
	case *record != "" && *verify != "":
		err = errors.New("choose either -record or -verify")
	case *record != "":
		err = recordTrace(*record, *task, *mode, *steps, *seed)
	case *verify != "":
		err = verifyTrace(*verify, *scheme)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpolverify:", err)
		os.Exit(1)
	}
}

// workerShard deterministically reconstructs the (probe, worker) data split
// for a task seed — the convention shared by record and verify.
func workerShard(taskName string, seed int64) (spec modelzoo.TaskSpec, probe, work *dataset.Dataset, err error) {
	spec, err = modelzoo.Get(taskName)
	if err != nil {
		return spec, nil, nil, err
	}
	_, train, _, err := spec.BuildProxy(seed)
	if err != nil {
		return spec, nil, nil, err
	}
	halves, err := train.Partition(2)
	if err != nil {
		return spec, nil, nil, err
	}
	return spec, halves[0], halves[1], nil
}

func recordTrace(path, taskName, mode string, steps int, seed int64) error {
	spec, _, work, err := workerShard(taskName, seed)
	if err != nil {
		return err
	}
	net, err := spec.BuildProxyNet(seed + 1)
	if err != nil {
		return err
	}
	p := rpol.TaskParams{
		Global:          net.ParamVector(),
		Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: spec.ProxyBatchSize},
		Nonce:           prf.DeriveNonce([]byte("rpolverify"), taskName, 0),
		Steps:           steps,
		CheckpointEvery: 5,
	}

	var (
		trace   *rpol.Trace
		gpuName = gpu.GA10.Name
	)
	switch mode {
	case "honest":
		worker, err := rpol.NewHonestWorker("recorded", gpu.GA10, seed+100, net, work)
		if err != nil {
			return err
		}
		if _, err := worker.RunEpoch(p); err != nil {
			return err
		}
		trace = worker.LastTrace()
	case "adv1":
		adv := adversary.NewAdv1("recorded", gpu.GT4, work.Len())
		if _, err := adv.RunEpoch(p); err != nil {
			return err
		}
		trace = traceFromOpener(adv, p)
	case "adv2":
		adv, err := adversary.NewAdv2("recorded", gpu.GA10, seed+100, net, work, 0.1, 0.5)
		if err != nil {
			return err
		}
		if _, err := adv.RunEpoch(p); err != nil {
			return err
		}
		trace = adv.LastTrace()
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}

	file, err := tracefile.FromTrace(taskName, seed, "recorded", gpuName, p, trace)
	if err != nil {
		return err
	}
	if err := file.Write(path); err != nil {
		return err
	}
	fmt.Printf("recorded %s trace (%d checkpoints) to %s\n", mode, len(trace.Checkpoints), path)
	return nil
}

// traceFromOpener rebuilds a trace by opening every checkpoint (used for
// adversaries that expose no LastTrace).
func traceFromOpener(opener rpol.ProofOpener, p rpol.TaskParams) *rpol.Trace {
	trace := &rpol.Trace{}
	for i := 0; i < p.NumCheckpoints(); i++ {
		w, err := opener.OpenCheckpoint(i)
		if err != nil {
			break
		}
		step := i * p.CheckpointEvery
		if step > p.Steps {
			step = p.Steps
		}
		trace.Checkpoints = append(trace.Checkpoints, w)
		trace.Steps = append(trace.Steps, step)
	}
	return trace
}

func verifyTrace(path, schemeName string) error {
	var scheme rpol.Scheme
	switch schemeName {
	case "v1":
		scheme = rpol.SchemeV1
	case "v2":
		scheme = rpol.SchemeV2
	default:
		return fmt.Errorf("unknown scheme %q", schemeName)
	}
	file, err := tracefile.Read(path)
	if err != nil {
		return err
	}
	spec, probe, work, err := workerShard(file.Task, file.Seed)
	if err != nil {
		return err
	}
	p, err := file.TaskParams()
	if err != nil {
		return err
	}
	trace, err := file.Trace()
	if err != nil {
		return err
	}

	// Calibrate β (and the LSH family under v2) exactly as the manager
	// would before the epoch.
	calNet, err := spec.BuildProxyNet(file.Seed + 1)
	if err != nil {
		return err
	}
	calibrator := &rpol.Calibrator{Net: calNet, Shard: probe, XFactor: 5, KLsh: 16}
	cal, fam, err := calibrator.Calibrate(p, gpu.G3090, gpu.GA10,
		[2]int64{file.Seed + 11, file.Seed + 12}, file.Seed+13)
	if err != nil {
		return err
	}
	if scheme == rpol.SchemeV2 {
		p.LSH = fam
	}

	// Rebuild the submission from the recorded trace. Binding the final
	// checkpoint reproduces exactly what the worker committed (see
	// rpol.BindFinalCheckpoint).
	update, err := rpol.BindFinalCheckpoint(trace, p.Global)
	if err != nil {
		return err
	}
	ec, err := rpol.CommitTrace(nil, trace.Checkpoints, p.LSH)
	if err != nil {
		return err
	}
	result := &rpol.EpochResult{
		WorkerID:       file.WorkerID,
		Epoch:          p.Epoch,
		Update:         update,
		DataSize:       work.Len(),
		NumCheckpoints: len(trace.Checkpoints),
	}
	ec.Apply(result)

	verifyNet, err := spec.BuildProxyNet(file.Seed + 1)
	if err != nil {
		return err
	}
	device, err := gpu.NewDevice(gpu.G3090, file.Seed+500)
	if err != nil {
		return err
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
	outcome, err := verifier.VerifySubmission(&traceOpener{trace: trace, ec: ec}, work, result, p)
	if err != nil {
		return err
	}

	fmt.Printf("trace: task=%s worker=%s gpu=%s checkpoints=%d\n",
		file.Task, file.WorkerID, file.GPU, len(trace.Checkpoints))
	fmt.Printf("calibration: α=%.3g β=%.3g lsh={r=%.3g,k=%d,l=%d}\n",
		cal.Alpha, cal.Beta, cal.Params.R, cal.Params.K, cal.Params.L)
	fmt.Printf("sampled checkpoints: %v\n", outcome.SampledCheckpoints)
	if outcome.Accepted {
		fmt.Printf("VERDICT: ACCEPTED (LSH misses %d, double-checks %d, %d bytes of proofs)\n",
			outcome.LSHMisses, outcome.DoubleChecks, outcome.CommBytes)
		return nil
	}
	fmt.Printf("VERDICT: REJECTED — %s\n", outcome.FailReason.Error())
	return nil
}

// traceOpener serves checkpoints from a decoded trace and proof pulls from
// the commitment rebuilt over it.
type traceOpener struct {
	trace *rpol.Trace
	ec    *rpol.EpochCommitment
}

func (o *traceOpener) OpenCheckpoint(idx int) (tensor.Vector, error) {
	if idx < 0 || idx >= len(o.trace.Checkpoints) {
		return nil, fmt.Errorf("checkpoint %d of %d", idx, len(o.trace.Checkpoints))
	}
	return o.trace.Checkpoints[idx], nil
}

func (o *traceOpener) OpenProof(idx int) (rpol.LeafProof, error) { return o.ec.OpenProof(idx) }
