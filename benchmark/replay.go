package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"

	"rpol"
	"rpol/internal/commitment"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/nn"
	"rpol/internal/obs"
	"rpol/internal/parallel"
	"rpol/internal/prf"
	proto "rpol/internal/rpol"
	"rpol/internal/tensor"
	"rpol/internal/wire"
)

// replayScale sets how many timed calls each replayed entry point gets. The
// full scale meets the ≥ 200 calls the catalogue promises for step-sized
// entry points; epoch-sized ones (a whole training epoch, a calibration) get
// a handful.
type replayScale struct {
	Fast int // calls of µs–ms entry points
	Slow int // calls of epoch-sized entry points
}

var (
	fullReplay  = replayScale{Fast: 200, Slow: 5}
	quickReplay = replayScale{Fast: 5, Slow: 1}
)

// timeCalls returns the median duration in nanoseconds of n calls of fn after
// a tenth as many warm-up calls.
func timeCalls(clock obs.Clock, n int, fn func() error) (float64, error) {
	for i := 0; i < n/10+1; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	samples := make([]float64, n)
	for i := range samples {
		t0 := clock.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples[i] = float64(clock.Now() - t0)
	}
	sort.Float64s(samples)
	return quantile(samples, 0.5), nil
}

// allocsPerCall returns the mean heap allocations of n calls of fn.
func allocsPerCall(n int, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// replayer collects replayed metrics. Its first error sticks: later entries
// are skipped, so a replay reads as a plain sequence and checks r.err only
// before it uses a value an earlier entry produced.
type replayer struct {
	clock obs.Clock
	out   map[string]float64
	err   error
}

// timer returns a function that times n calls of fn and stores the median
// under name, in nanoseconds divided by perUnit.
func (r *replayer) timer(perUnit float64) func(name string, n int, fn func() error) {
	return func(name string, n int, fn func() error) {
		if r.err != nil {
			return
		}
		ns, err := timeCalls(r.clock, n, fn)
		if err != nil {
			r.err = fmt.Errorf("replay %s: %w", name, err)
			return
		}
		r.out[name] = ns / perUnit
	}
}

func (r *replayer) allocs(name string, n int, fn func() error) {
	if r.err != nil {
		return
	}
	if r.out[name], r.err = allocsPerCall(n, fn); r.err != nil {
		r.err = fmt.Errorf("replay %s: %w", name, r.err)
	}
}

// commitTrace calls rpol.CommitTrace through reflection: the roadmap drops
// its trailing `merkle bool` once Merkle is the only commitment, and the
// benchmark must build on both sides of that change.
func commitTrace(checkpoints []tensor.Vector, fam *lsh.Family) (*proto.EpochCommitment, error) {
	fn := reflect.ValueOf(proto.CommitTrace)
	args := []reflect.Value{
		reflect.Zero(fn.Type().In(0)), // nil compute pool: the serial path workers run behind the wire
		reflect.ValueOf(checkpoints),
		reflect.ValueOf(fam),
	}
	if fn.Type().NumIn() == 4 {
		args = append(args, reflect.ValueOf(true))
	}
	out := fn.Call(args)
	if err, _ := out[1].Interface().(error); err != nil {
		return nil, err
	}
	return out[0].Interface().(*proto.EpochCommitment), nil
}

// replayLayers times each module's entry point directly, at the sizes the
// workload uses, and returns the values keyed by metric name. Entry points
// the workload never reaches (LSH under RPoLv1) report 0.
func replayLayers(w workload, seed int64, clock obs.Clock, scale replayScale) (map[string]float64, error) {
	r := &replayer{clock: clock, out: make(map[string]float64)}
	us, sec := r.timer(1e3), r.timer(1e9)

	seed = taskSeed(seed, w, -1)
	spec, err := rpol.Task(w.Task)
	if err != nil {
		return nil, err
	}
	net, train, _, err := spec.BuildProxy(seed)
	if err != nil {
		return nil, err
	}
	shards, err := train.Partition(w.Workers + 1)
	if err != nil {
		return nil, err
	}
	shard, probe := shards[0], shards[w.Workers]
	profiles := rpol.GPUProfiles()
	global := net.ParamVector()
	hyper := proto.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: w.Batch}
	nonce := prf.DeriveNonce([]byte("pool-manager/nonce-master"), "worker-00", 0)
	params := proto.TaskParams{
		Global: global.Clone(), Hyper: hyper, Nonce: nonce,
		Steps: w.Steps, CheckpointEvery: w.Every,
	}
	setIfPresent(&params, "MerkleCommit", true)

	// tensor: the vector codec every checkpoint, task and result goes through.
	var encBuf []byte
	us("tensor.encode_us", scale.Fast, func() error {
		encBuf = global.AppendEncode(encBuf[:0])
		return nil
	})
	us("tensor.decode_us", scale.Fast, func() error {
		_, err := tensor.DecodeVector(encBuf)
		return err
	})

	// prf, nn, gpu: one training step's batch schedule, update and noise.
	schedule := prf.NewFromNonce(nonce)
	step := 0
	var idxs []int
	us("prf.batch_indices_us", scale.Fast, func() error {
		step++
		idxs, err = schedule.BatchIndices(step, w.Batch, shard.Len())
		return err
	})
	xs := make([]tensor.Vector, len(idxs))
	labels := make([]int, len(idxs))
	for i, idx := range idxs {
		xs[i], labels[i] = shard.Examples[idx].Features, shard.Examples[idx].Label
	}
	opt, err := nn.NewOptimizer(hyper.Optimizer, hyper.LR)
	if err != nil {
		return nil, err
	}
	serialStep := func() error {
		_, err := net.TrainBatch(xs, labels, opt)
		return err
	}
	us("nn.train_step_serial_us", scale.Fast, serialStep)
	r.allocs("nn.train_step_serial_allocs", scale.Fast, serialStep)
	batched, err := nn.NewBatchTrainer(net, parallel.New(1))
	if err != nil {
		return nil, err
	}
	us("nn.train_step_batched_us", scale.Fast, func() error {
		_, err := batched.TrainBatch(xs, labels, opt)
		return err
	})
	device, err := gpu.NewDevice(profiles[0], seed)
	if err != nil {
		return nil, err
	}
	noisy := global.Clone()
	us("gpu.perturb_us", scale.Fast, func() error {
		device.Perturb(noisy)
		return nil
	})

	// rpol: a worker's epoch (train, then commit) and the manager's fixed
	// per-epoch work (calibrate, then verify each submission).
	if err := net.SetParamVector(global); err != nil {
		return nil, err
	}
	worker, err := rpol.NewHonestWorker("worker-00", profiles[0], seed+1000, net, shard)
	if err != nil {
		return nil, err
	}
	trainerNet, err := spec.BuildProxyNet(seed + 1)
	if err != nil {
		return nil, err
	}
	trainerDevice, err := gpu.NewDevice(profiles[0], seed+1000)
	if err != nil {
		return nil, err
	}
	trainer := &proto.Trainer{Net: trainerNet, Shard: shard, Device: trainerDevice}
	var trace *proto.Trace
	sec("rpol.trainer.run_epoch_s", scale.Slow, func() error {
		trace, err = trainer.RunEpoch(params)
		return err
	})

	managerNet, err := spec.BuildProxyNet(seed + 1)
	if err != nil {
		return nil, err
	}
	calibrator := &proto.Calibrator{Net: managerNet, Shard: probe}
	rng := tensor.NewRNG(seed + 7)
	var cal *proto.Calibration
	var fam *lsh.Family
	sec("rpol.calibrator.calibrate_s", scale.Slow, func() error {
		cal, fam, err = calibrator.Calibrate(params, profiles[0], profiles[1],
			[2]int64{rng.Int63(), rng.Int63()}, rng.Int63())
		return err
	})
	if r.err != nil {
		return nil, r.err // trace and cal are used directly from here on
	}
	if w.Scheme != proto.SchemeV2 {
		fam = nil
	}
	params.LSH = fam

	us("rpol.commit.commit_trace_us", scale.Slow*4, func() error {
		_, err := commitTrace(trace.Checkpoints, fam)
		return err
	})

	result, err := worker.RunEpoch(params)
	if err != nil {
		return nil, err
	}
	verifyDevice, err := gpu.NewDevice(profiles[0], seed+7)
	if err != nil {
		return nil, err
	}
	verifier := &proto.Verifier{
		Scheme: w.Scheme, Net: managerNet, Device: verifyDevice, Beta: cal.Beta,
		LSH: fam, Samples: w.Samples, Sampler: rng,
	}
	us("rpol.verifier.verify_submission_us", scale.Slow*4, func() error {
		outcome, err := verifier.VerifySubmission(worker, shard, result, params)
		if err == nil && !outcome.Accepted {
			err = fmt.Errorf("honest submission rejected: %s", outcome.FailReason)
		}
		return err
	})

	// lsh: the family every v2 task decode rebuilds, and one digest.
	if fam != nil {
		us("lsh.new_family_us", scale.Fast/4+1, func() error {
			_, err := lsh.NewFamily(len(global), cal.Params, fam.Seed())
			return err
		})
		us("lsh.hash_us", scale.Fast, func() error {
			_, err := fam.Hash(global)
			return err
		})
	}

	// commitment: a tree over the leaves this workload commits (LSH digests
	// under v2, raw weight encodings under v1), one proof, one check.
	leaves := make([][]byte, len(trace.Checkpoints))
	for i, cp := range trace.Checkpoints {
		if fam != nil {
			d, err := fam.Hash(cp)
			if err != nil {
				return nil, err
			}
			leaves[i] = d.Encode()
		} else {
			leaves[i] = cp.Encode()
		}
	}
	var tree *commitment.MerkleTree
	us("commitment.merkle_build_us", scale.Fast, func() error {
		tree, err = commitment.NewMerkleTree(leaves)
		return err
	})
	mid := len(leaves) / 2
	var proof commitment.MerkleProof
	us("commitment.merkle_prove_us", scale.Fast, func() error {
		proof, err = tree.Prove(mid)
		return err
	})
	us("commitment.merkle_verify_us", scale.Fast, func() error {
		return commitment.VerifyMerkle(tree.Root(), len(leaves), leaves[mid], proof)
	})
	r.out["commitment.proof_bytes"] = float64(proof.Size())

	// wire: the task and result codecs (a v2 task decode rebuilds the family).
	var taskFrame, resultFrame []byte
	us("wire.encode_task_us", scale.Fast, func() error {
		taskFrame, err = wire.EncodeTask(params)
		return err
	})
	us("wire.decode_task_us", scale.Fast/4+1, func() error {
		_, err := wire.DecodeTask(taskFrame)
		return err
	})
	us("wire.encode_result_us", scale.Fast, func() error {
		resultFrame, err = wire.EncodeResult(result)
		return err
	})
	decodeResult := func() error {
		_, err := wire.DecodeResult(resultFrame)
		return err
	}
	us("wire.decode_result_us", scale.Fast, decodeResult)
	r.allocs("wire.decode_result_allocs", scale.Fast, decodeResult)

	if r.err != nil {
		return nil, r.err
	}
	if err := replayHub(r.out, clock, scale, len(encBuf)); err != nil {
		return nil, err
	}
	return r.out, nil
}

// replayHub measures the TCP hub on loopback: the round trip of a 64-byte
// message through it, and its throughput on payloads the size of the
// workload's encoded model vector.
func replayHub(out map[string]float64, clock obs.Clock, scale replayScale, vectorBytes int) (err error) {
	hub, err := rpol.NewTCPHub("127.0.0.1:0")
	if err != nil {
		return err
	}
	var echo sync.WaitGroup
	var echoErr error
	defer func() {
		hub.Close()
		echo.Wait()
		if err == nil && echoErr != nil {
			err = fmt.Errorf("replay hub echo: %w", echoErr)
		}
	}()
	ping, err := rpol.DialHub(hub.Addr(), "ping")
	if err != nil {
		return err
	}
	defer func() { _ = ping.Close() }()
	pong, err := rpol.DialHub(hub.Addr(), "pong")
	if err != nil {
		return err
	}
	defer func() { _ = pong.Close() }()
	echo.Add(1)
	go func() {
		defer echo.Done()
		for {
			msg, err := pong.Recv()
			if err != nil {
				return // hub closed
			}
			if err := pong.Send(msg.From, "echo", msg.Payload); err != nil {
				echoErr = err
				return
			}
		}
	}()
	roundTrip := func(payload []byte) func() error {
		return func() error {
			if err := ping.Send("pong", "echo", payload); err != nil {
				return err
			}
			msg, err := ping.Recv()
			if err != nil {
				return err
			}
			if len(msg.Payload) != len(payload) {
				return errors.New("echo came back with another length")
			}
			return nil
		}
	}
	rtt, err := timeCalls(clock, scale.Fast, roundTrip(make([]byte, 64)))
	if err != nil {
		return fmt.Errorf("replay netsim.tcp_rtt_us: %w", err)
	}
	out["netsim.tcp_rtt_us"] = rtt / 1e3
	bulk, err := timeCalls(clock, scale.Fast, roundTrip(make([]byte, vectorBytes)))
	if err != nil {
		return fmt.Errorf("replay netsim.tcp_mb_per_s: %w", err)
	}
	// The payload crosses the hub twice per round trip.
	out["netsim.tcp_mb_per_s"] = 2 * float64(vectorBytes) / 1e6 / (bulk / 1e9)
	return nil
}
