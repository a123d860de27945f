// Package gpu simulates the accelerator hardware the paper evaluates on.
// It substitutes for the physical NVIDIA GPUs (G3090, GA10, GP100, GT4) the
// authors used, reproducing the two properties the protocol depends on:
//
//  1. Throughput. Each profile carries the device's FP32 capacity, which
//     drives the epoch-time model behind Table II.
//  2. Nondeterminism. Real GPU training is not bit-reproducible: cuDNN
//     kernels, parallel reductions, and low-level libraries inject tiny
//     per-step weight perturbations (Eq. 2's ε_t). The Device here adds a
//     structured Gaussian perturbation after every training step, composed
//     of
//     - a device-systematic component shared by all runs on the same
//     profile (so identical hardware reproduces more closely than
//     different hardware),
//     - a run-specific component drawn per execution (so even the same GPU
//     never reproduces exactly), and
//     - white per-step noise.
//
// All components scale with device throughput, matching the paper's
// Sec. VII-C observations: errors exist on identical GPUs, grow with GPU
// performance, are larger across different GPUs, and are largest for the
// top-2-performance pair (G3090 + GA10). Accumulated over a checkpoint
// interval the systematic components dominate, so reproduction distance
// grows roughly linearly with the interval — also as measured in the paper.
package gpu

import (
	"errors"
	"fmt"
	"time"

	"rpol/internal/prf"
	"rpol/internal/tensor"
)

// Profile describes one accelerator model.
type Profile struct {
	Name   string
	TFLOPS float64 // FP32 capacity in teraFLOPS
}

// The paper's four evaluation devices with their FP32 capacities
// (Sec. VII-C).
var (
	G3090 = Profile{Name: "G3090", TFLOPS: 35.7}
	GA10  = Profile{Name: "GA10", TFLOPS: 31.2}
	GP100 = Profile{Name: "GP100", TFLOPS: 10.6}
	GT4   = Profile{Name: "GT4", TFLOPS: 8.1}
)

// Profiles lists the standard devices in descending performance order.
func Profiles() []Profile { return []Profile{G3090, GA10, GP100, GT4} }

// Noise scales relative to the fastest standard device. The absolute values
// are small compared with per-step gradient updates, as real reproduction
// errors are; the protocol's adaptive calibration measures whatever the
// deployment produces, so only the orderings above are load-bearing.
const (
	refTFLOPS     = 35.7
	devNoiseBase  = 3e-6 // device-systematic per-element std at refTFLOPS
	runNoiseBase  = 1e-6 // run-specific per-element std at refTFLOPS
	whiteFraction = 0.2  // white noise relative to run noise
	// gpuEfficiency discounts peak FLOPS to sustained training throughput.
	gpuEfficiency = 0.35
)

// ErrBadProfile is returned for profiles with non-positive throughput.
var ErrBadProfile = errors.New("gpu: profile needs positive TFLOPS")

// Device is one executing accelerator instance. Two Devices with the same
// Profile but different run seeds model "the same task re-run on the same
// GPU model"; different Profiles model cross-hardware reproduction.
//
// A Device is not safe for concurrent use.
type Device struct {
	profile Profile
	rng     *tensor.RNG

	devScale float64
	runScale float64

	// Lazily built per-dimension bias vectors.
	deviceBias map[int]tensor.Vector
	runBias    map[int]tensor.Vector

	// noiseBuf is the reusable white-noise scratch for Perturb, grown to the
	// largest weight dimension seen.
	noiseBuf tensor.Vector
}

// NewDevice returns a Device for the profile. runSeed individualizes this
// execution: re-running the same training with a different runSeed models
// the nondeterminism of a fresh run on the same hardware.
func NewDevice(profile Profile, runSeed int64) (*Device, error) {
	if profile.TFLOPS <= 0 {
		return nil, fmt.Errorf("%s: %w", profile.Name, ErrBadProfile)
	}
	perf := profile.TFLOPS / refTFLOPS
	return &Device{
		profile:    profile,
		rng:        tensor.NewRNG(runSeed),
		devScale:   devNoiseBase * perf,
		runScale:   runNoiseBase * perf,
		deviceBias: make(map[int]tensor.Vector),
		runBias:    make(map[int]tensor.Vector),
	}, nil
}

// Profile returns the device's hardware profile.
func (d *Device) Profile() Profile { return d.profile }

func (d *Device) deviceBiasFor(dim int) tensor.Vector {
	if b, ok := d.deviceBias[dim]; ok {
		return b
	}
	// Device-systematic bias is a pure function of (profile, dim): all runs
	// on the same profile share it, so it cancels in same-GPU reproduction
	// and survives in cross-GPU reproduction.
	seed := prf.SeedFromString("gpu-device-bias/" + d.profile.Name)
	b := tensor.NewRNG(seed^int64(dim)).NormalVector(dim, 0, d.devScale)
	d.deviceBias[dim] = b
	return b
}

func (d *Device) runBiasFor(dim int) tensor.Vector {
	if b, ok := d.runBias[dim]; ok {
		return b
	}
	b := d.rng.NormalVector(dim, 0, d.runScale)
	d.runBias[dim] = b
	return b
}

// StepNoise returns the ε_t of Eq. (2) for one training step over a weight
// vector of length dim. Callers add it to the weights after the optimizer
// update.
func (d *Device) StepNoise(dim int) tensor.Vector {
	noise := d.rng.NormalVector(dim, 0, d.runScale*whiteFraction)
	dev := d.deviceBiasFor(dim)
	run := d.runBiasFor(dim)
	for i := range noise {
		noise[i] += dev[i] + run[i]
	}
	return noise
}

// Perturb applies one step of hardware noise to weights in place. It draws
// the identical noise sequence StepNoise produces but reuses an internal
// scratch buffer, so the per-step cost is allocation-free once every
// dimension in the caller's rotation (W, b, W, b, …) has been seen.
func (d *Device) Perturb(weights tensor.Vector) {
	dim := len(weights)
	noise := d.whiteNoise(dim)
	dev := d.deviceBiasFor(dim)
	run := d.runBiasFor(dim)
	for i := range weights {
		// Grouped exactly as StepNoise does (noise += dev + run, then
		// weights += noise) so the float result is bit-identical.
		weights[i] += noise[i] + (dev[i] + run[i])
	}
}

// whiteNoise draws one step's white component into the scratch buffer,
// growing it only when dim exceeds its capacity.
func (d *Device) whiteNoise(dim int) tensor.Vector {
	if cap(d.noiseBuf) < dim {
		d.noiseBuf = tensor.NewVector(dim)
	}
	d.noiseBuf = d.noiseBuf[:dim]
	d.rng.FillNormal(d.noiseBuf, 0, d.runScale*whiteFraction)
	return d.noiseBuf
}

// SkipPerturb advances the device's noise stream past one Perturb call at
// the given weight dimension without touching any weights. Crash recovery
// uses it to fast-forward a worker's device through the steps already
// persisted in checkpoints: replaying the RNG draws (and materializing the
// lazy run bias exactly when Perturb would) leaves the device in the
// bit-identical state a live run would have reached.
func (d *Device) SkipPerturb(dim int) {
	d.whiteNoise(dim)
	d.runBiasFor(dim)
}

// ExecTime models the wall-clock time to execute the given number of
// floating-point operations at sustained throughput.
func (d *Device) ExecTime(flops float64) time.Duration {
	if flops <= 0 {
		return 0
	}
	seconds := flops / (d.profile.TFLOPS * 1e12 * gpuEfficiency)
	return time.Duration(seconds * float64(time.Second))
}

// TopTwo returns the two highest-throughput profiles from the list. The
// manager's adaptive calibration runs its probe sub-task on the top-2
// best-performant GPUs registered by pool workers, to measure reproduction
// errors near their worst case (Sec. V-C).
func TopTwo(profiles []Profile) (first, second Profile, err error) {
	if len(profiles) < 2 {
		return Profile{}, Profile{}, errors.New("gpu: need at least two profiles")
	}
	first, second = profiles[0], profiles[1]
	if second.TFLOPS > first.TFLOPS {
		first, second = second, first
	}
	for _, p := range profiles[2:] {
		switch {
		case p.TFLOPS > first.TFLOPS:
			second = first
			first = p
		case p.TFLOPS > second.TFLOPS:
			second = p
		}
	}
	return first, second, nil
}
