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
// ε is a pure function of its coordinates, not a stream: the white noise of
// one step of one parameter tensor is keyed by (run seed, task key, step,
// tensor ordinal), the device bias by (profile, tensor ordinal), the run bias
// by (run seed, tensor ordinal), each drawn with tensor.FillNormalKeyed's
// counter-based generator. Each parameter tensor has biases of its own, and
// a device placed anywhere with Seek draws exactly what a device that trained
// up to that point would, so a resumed run has no noise to replay.
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

// Key domains: white noise and the run bias are both keyed by the run seed,
// so each carries its own label.
const (
	whiteDomain = 1 + iota
	runDomain
)

// Device is one executing accelerator instance. Two Devices with the same
// Profile but different run seeds model "the same task re-run on the same
// GPU model"; different Profiles model cross-hardware reproduction.
//
// A Device is not safe for concurrent use.
type Device struct {
	profile Profile
	runSeed uint64
	devKey  uint64 // the profile's device-bias key

	devScale float64
	runScale float64

	// The position Perturb applies at: the task key, the training step and
	// the parameter tensor's ordinal.
	key           uint64
	step, ordinal int

	// bias[t] is tensor t's device bias plus its run bias, built on first use.
	bias []tensor.Vector
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
		profile:  profile,
		runSeed:  uint64(runSeed),
		devKey:   uint64(prf.SeedFromString("gpu-device-bias/" + profile.Name)),
		devScale: devNoiseBase * perf,
		runScale: runNoiseBase * perf,
	}, nil
}

// Profile returns the device's hardware profile.
func (d *Device) Profile() Profile { return d.profile }

// Seek moves the device to training step `step` of the parameter tensor
// with the given ordinal, under the task key (a worker's nonce). It is O(1):
// the noise at a position does not depend on the positions visited before.
func (d *Device) Seek(key uint64, step, ordinal int) {
	d.key, d.step, d.ordinal = key, step, ordinal
}

// Perturb adds the ε_t of Eq. (2) at the device's position to the weights of
// one parameter tensor, in place, then advances the position one step: white
// noise keyed by (run seed, task key, step, tensor) plus the tensor's device
// and run biases, in one pass. It allocates only on the first sight of a
// tensor ordinal (or of a new length at one).
func (d *Device) Perturb(weights tensor.Vector) {
	bias := d.biasFor(d.ordinal, len(weights))
	tensor.AddNormalKeyed(weights, d.whiteKey(), d.runScale*whiteFraction, bias)
	d.step++
}

// biasFor returns tensor t's device bias plus its run bias over n weights.
// Both are keyed by the ordinal, so two tensors of equal length never share
// one: the device bias by (profile, t), shared by every run on the profile so
// that it cancels in same-GPU reproduction and survives across GPUs; the run
// bias by (run seed, t).
func (d *Device) biasFor(t, n int) tensor.Vector {
	if t >= len(d.bias) {
		d.bias = append(d.bias, make([]tensor.Vector, t+1-len(d.bias))...)
	}
	if len(d.bias[t]) != n {
		b := tensor.NewVector(n)
		tensor.FillNormalKeyed(b, d.deviceBiasKey(t), d.devScale)
		tensor.AddNormalKeyed(b, d.runBiasKey(t), d.runScale, nil)
		d.bias[t] = b
	}
	return d.bias[t]
}

// whiteKey keys the white noise at the device's position.
func (d *Device) whiteKey() uint64 {
	return tensor.KeyOf(d.runSeed, whiteDomain, d.key, uint64(d.step), uint64(d.ordinal))
}

// deviceBiasKey keys tensor t's device-systematic bias.
func (d *Device) deviceBiasKey(t int) uint64 { return tensor.KeyOf(d.devKey, uint64(t)) }

// runBiasKey keys tensor t's run-specific bias.
func (d *Device) runBiasKey(t int) uint64 { return tensor.KeyOf(d.runSeed, runDomain, uint64(t)) }

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
