package rpol

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"rpol/internal/commitment"
	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/tensor"
)

// countingOpener counts what a verifier asks a worker for, per leaf, and the
// bytes it was answered with.
type countingOpener struct {
	inner         ProofOpener
	opens, proofs map[int]int
	openBytes     int64
	proofBytes    int64
}

func (o *countingOpener) OpenCheckpoint(idx int) (tensor.Vector, error) {
	if o.opens == nil {
		o.opens = map[int]int{}
	}
	o.opens[idx]++
	w, err := o.inner.OpenCheckpoint(idx)
	if err == nil {
		o.openBytes += int64(tensor.EncodedSize(len(w)))
	}
	return w, err
}

func (o *countingOpener) OpenProof(idx int) (LeafProof, error) {
	if o.proofs == nil {
		o.proofs = map[int]int{}
	}
	o.proofs[idx]++
	lp, err := o.inner.OpenProof(idx)
	if err == nil {
		o.proofBytes += int64(lp.Size())
	}
	return lp, err
}

func (o *countingOpener) total(calls map[int]int) int {
	n := 0
	for _, c := range calls {
		n += c
	}
	return n
}

// leavesOf lists the indices requested, ascending.
func leavesOf(calls map[int]int) []int {
	out := make([]int, 0, len(calls))
	for idx := range calls {
		out = append(out, idx)
	}
	slices.Sort(out)
	return out
}

// storeSetup is one honest submission of a task with the given number of
// intervals, with what a verifier of it needs. opener answers the verifier's
// pulls: the worker itself, or the worker's trace committed whole.
type storeSetup struct {
	worker *HonestWorker
	opener ProofOpener
	result *EpochResult
	p      TaskParams
	ds     *dataset.Dataset
	fam    *lsh.Family
	beta   float64
}

// newStoreSetup trains the submission. merkle selects which construction of
// its root answers the pulls: true, the tree the worker streamed while it
// trained; false, the finished trace committed whole by CommitTrace, the
// path of a worker that keeps no tree while training. Both must yield the
// same root, and the verifier must not tell them apart.
func newStoreSetup(t *testing.T, scheme Scheme, merkle bool, intervals int) *storeSetup {
	t.Helper()
	netW, ds := testTask(t, 10)
	worker, err := NewHonestWorker("w1", gpu.GA10, 101, netW, ds)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(netW.ParamVector())
	p.CheckpointEvery, p.Steps = 2, 2*intervals
	s := &storeSetup{worker: worker, ds: ds, beta: 0.05}
	if scheme == SchemeV2 {
		netC, _ := testTask(t, 10)
		cal := &Calibrator{Net: netC, Shard: ds, XFactor: 5, KLsh: 16}
		calOut, fam, err := cal.Calibrate(p, gpu.G3090, gpu.GA10, [2]int64{5, 6}, 7)
		if err != nil {
			t.Fatal(err)
		}
		s.fam, s.beta, p.LSH = fam, calOut.Beta, fam
	}
	if s.result, err = worker.RunEpoch(p); err != nil {
		t.Fatal(err)
	}
	s.p, s.opener = p, worker
	if !merkle {
		s.opener = commitWhole(t, worker.LastTrace(), p.LSH, s.result)
	}
	return s
}

func (s *storeSetup) verifier(t *testing.T, scheme Scheme, workers int, samplerSeed int64) *Verifier {
	t.Helper()
	netV, _ := testTask(t, 10)
	device, err := gpu.NewDevice(gpu.G3090, 999)
	if err != nil {
		t.Fatal(err)
	}
	// The replay runtime is built here, at the given process setting, and
	// kept for the verifier's lifetime.
	setWorkers(t, workers)
	trainer := &Trainer{Net: netV}
	if err := trainer.build(); err != nil {
		t.Fatal(err)
	}
	return &Verifier{
		Scheme: scheme, Net: netV, Device: device, Beta: s.beta, LSH: s.fam,
		Samples: 3, Sampler: tensor.NewRNG(samplerSeed), trainer: trainer,
	}
}

// checkPulls holds one accepted verification's opener calls against what the
// protocol needs: the bound leaves are never opened, no leaf is asked for
// twice, the opened leaves are exactly the interior leaves the sampled
// intervals touch (v1) or their interior inputs plus at most one leaf per
// double-check (v2), every leaf used is proven exactly once, and the
// outcome's tallies are the bytes those calls returned.
func checkPulls(t *testing.T, scheme Scheme, s *storeSetup, o *countingOpener, out *VerifyOutcome) {
	t.Helper()
	last := s.result.NumCheckpoints - 1
	if !out.Accepted {
		t.Fatalf("sampled %v: honest submission rejected: %s", out.SampledCheckpoints, out.FailReason)
	}
	for _, calls := range []map[int]int{o.opens, o.proofs} {
		for idx, n := range calls {
			if n > 1 {
				t.Errorf("sampled %v: leaf %d requested %d times", out.SampledCheckpoints, idx, n)
			}
		}
	}
	if o.opens[0] != 0 || o.opens[last] != 0 {
		t.Errorf("sampled %v: bound leaves opened (%d, %d times)", out.SampledCheckpoints, o.opens[0], o.opens[last])
	}
	interior := func(touched ...int) []int {
		var set []int
		for _, idx := range touched {
			if idx != 0 && idx != last && !slices.Contains(set, idx) {
				set = append(set, idx)
			}
		}
		slices.Sort(set)
		return set
	}
	var inputs, ends []int
	for _, c := range out.SampledCheckpoints {
		inputs = append(inputs, c)
		ends = append(ends, c, c+1)
	}
	opened := leavesOf(o.opens)
	if scheme == SchemeV1 {
		if want := interior(ends...); !slices.Equal(opened, want) {
			t.Errorf("sampled %v: opened %v, want %v", out.SampledCheckpoints, opened, want)
		}
	} else {
		want := interior(inputs...)
		extra := 0
		for _, idx := range opened {
			if !slices.Contains(want, idx) {
				extra++
				if !slices.Contains(interior(ends...), idx) {
					t.Errorf("sampled %v: opened leaf %d, which no sampled interval touches", out.SampledCheckpoints, idx)
				}
			}
		}
		if len(opened)-extra != len(want) || extra > out.DoubleChecks {
			t.Errorf("sampled %v: opened %v, want inputs %v plus at most %d double-checks",
				out.SampledCheckpoints, opened, want, out.DoubleChecks)
		}
	}
	wantProved := append([]int{0, last}, ends...)
	if scheme == SchemeV1 {
		wantProved = append([]int{0, last}, opened...)
	}
	slices.Sort(wantProved)
	if got := leavesOf(o.proofs); !slices.Equal(got, slices.Compact(wantProved)) {
		t.Errorf("sampled %v: proved %v, want %v", out.SampledCheckpoints, got, slices.Compact(wantProved))
	}
	const base = int64(commitment.HashSize)
	if out.CommitBytes != base+o.proofBytes || out.CommBytes != out.CommitBytes+o.openBytes {
		t.Errorf("sampled %v: tallied (%d, %d) bytes, the calls returned %d of commitment, %d proof, %d checkpoint",
			out.SampledCheckpoints, out.CommBytes, out.CommitBytes, base, o.proofBytes, o.openBytes)
	}
}

// orderedSubsets calls f with every ordering of every q-subset of [0, n).
func orderedSubsets(n, q int, f func([]int)) {
	var rec func(prefix []int)
	rec = func(prefix []int) {
		if len(prefix) == q {
			f(slices.Clone(prefix))
			return
		}
		for c := 0; c < n; c++ {
			if !slices.Contains(prefix, c) {
				rec(append(prefix, c))
			}
		}
	}
	rec(nil)
}

// expectedOpens is the closed form of the checkpoints a verifier opens per
// submission when it samples q of n intervals uniformly (double-checks
// aside): under v1 each of the n−1 interior leaves unless neither interval
// around it is sampled, under v2 each sampled input unless it is leaf 0.
func expectedOpens(scheme Scheme, n, q int) float64 {
	q = min(q, n)
	if scheme == SchemeV1 {
		return float64(n-1) * (1 - float64((n-q)*(n-q-1))/float64(n*(n-1)))
	}
	return float64(q) * (1 - 1/float64(n))
}

// TestLeafStoreAsksOnceAndOnlyForInteriorLeaves is the standing proof that
// nothing is asked twice or needlessly: every ordering of every q-subset of
// small shapes goes through the replay loop at process settings 0 and 2 behind a
// counting opener, and the mean number of opened checkpoints over all of them
// is the closed form.
func TestLeafStoreAsksOnceAndOnlyForInteriorLeaves(t *testing.T) {
	for _, scheme := range []Scheme{SchemeV1, SchemeV2} {
		for _, merkle := range []bool{false, true} {
			for _, intervals := range []int{2, 3, 8} {
				name := fmt.Sprintf("%s/merkle=%v/n=%d", scheme, merkle, intervals)
				t.Run(name, func(t *testing.T) {
					s := newStoreSetup(t, scheme, merkle, intervals)
					claimedFinal, err := s.p.Global.Add(s.result.Update)
					if err != nil {
						t.Fatal(err)
					}
					serial, par := s.verifier(t, scheme, 0, 1), s.verifier(t, scheme, 2, 1)
					for q := 1; q <= min(3, intervals); q++ {
						var opened, inputs, runs int
						orderedSubsets(intervals, q, func(sampled []int) {
							for _, v := range []*Verifier{serial, par} {
								o := &countingOpener{inner: s.opener}
								out := &VerifyOutcome{SampledCheckpoints: sampled,
									CommitBytes: commitment.HashSize, CommBytes: commitment.HashSize}
								st := &v.store
								st.reset(o, s.result, s.fam, s.result.NumCheckpoints, out)
								if err := errors.Join(st.bind(0, s.p.Global), st.bind(intervals, claimedFinal)); err != nil {
									t.Fatal(err)
								}
								if out.Accepted, err = v.verifyIntervals(st, s.ds, s.p, out, nil); err != nil {
									t.Fatal(err)
								}
								checkPulls(t, scheme, s, o, out)
								if v == serial {
									runs++
									opened += len(o.opens)
									for _, c := range sampled {
										if c != 0 {
											inputs++
										}
									}
								}
							}
						})
						got := float64(opened) / float64(runs)
						if scheme == SchemeV2 {
							// Double-checks ride on top of the closed form.
							got = float64(inputs) / float64(runs)
						}
						if want := expectedOpens(scheme, intervals, q); math.Abs(got-want) > 1e-9 {
							t.Errorf("q=%d: %.6f checkpoints opened per submission over %d sample orders, closed form %.6f",
								q, got, runs, want)
						}
					}
				})
			}
		}
	}
}

// TestLeafStoreSeededSamples33 runs the same check through VerifySubmission
// at a 33-interval shape, over seeded samples, at process settings 0 and 2.
func TestLeafStoreSeededSamples33(t *testing.T) {
	for _, scheme := range []Scheme{SchemeV1, SchemeV2} {
		for _, merkle := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/merkle=%v", scheme, merkle), func(t *testing.T) {
				s := newStoreSetup(t, scheme, merkle, 33)
				for seed := int64(0); seed < 12; seed++ {
					var outs [2]*VerifyOutcome
					for i, workers := range []int{0, 2} {
						o := &countingOpener{inner: s.opener}
						out, err := s.verifier(t, scheme, workers, seed).VerifySubmission(o, s.ds, s.result, s.p)
						if err != nil {
							t.Fatal(err)
						}
						checkPulls(t, scheme, s, o, out)
						outs[i] = out
					}
					if !slices.Equal(outs[0].SampledCheckpoints, outs[1].SampledCheckpoints) ||
						outs[0].CommBytes != outs[1].CommBytes || outs[0].CommitBytes != outs[1].CommitBytes {
						t.Errorf("seed %d: workers=0 %+v, workers=2 %+v", seed, outs[0], outs[1])
					}
				}
			})
		}
	}
}

// adaptiveOpener answers the first request for a checkpoint honestly and any
// later one with another vector — under v2 one that collides with the
// committed digest, which the commitment alone could not tell apart.
type adaptiveOpener struct {
	inner   ProofOpener
	fam     *lsh.Family
	asked   map[int]bool
	adapted int
}

func (o *adaptiveOpener) OpenCheckpoint(idx int) (tensor.Vector, error) {
	w, err := o.inner.OpenCheckpoint(idx)
	if err != nil || !o.asked[idx] {
		if o.asked == nil {
			o.asked = map[int]bool{}
		}
		o.asked[idx] = true
		return w, err
	}
	o.adapted++
	other := w.Clone()
	if o.fam == nil {
		other[0]++
		return other, nil
	}
	want, err := o.fam.Hash(w)
	if err != nil {
		return nil, err
	}
	for eps := 1e-9; eps > 1e-18; eps /= 10 {
		other[0] = w[0] + eps
		if got, err := o.fam.Hash(other); err == nil && slices.Equal(got, want) {
			return other, nil
		}
	}
	return nil, errors.New("no colliding vector found")
}

func (o *adaptiveOpener) OpenProof(idx int) (LeafProof, error) { return o.inner.OpenProof(idx) }

// driftedTrace is an honest trace whose checkpoint `at` carries a committed
// drift of 0.7 β from what training produces — inside the distance bound, so
// the interval ending there passes, but (for a direction found by search)
// outside its LSH buckets, so under v2 it passes through the double-check.
// The trace continues from the drifted checkpoint, so the interval starting
// there replays consistently: leaf `at` is both a double-checked output and a
// sampled input.
func driftedTrace(t *testing.T, s *storeSetup, at int) (*traceOpener, *EpochResult) {
	t.Helper()
	net, _ := testTask(t, 10)
	device, err := gpu.NewDevice(gpu.GA10, 101)
	if err != nil {
		t.Fatal(err)
	}
	trainer := &Trainer{Net: net, Shard: s.ds, Device: device}
	trace := &Trace{Checkpoints: []tensor.Vector{s.p.Global.Clone()}, Steps: []int{0}}
	for c := 0; c+1 < s.p.NumCheckpoints(); c++ {
		next, err := trainer.ExecuteInterval(nil, trace.Final(), c*s.p.CheckpointEvery, s.p.CheckpointEvery, s.p.Hyper, s.p.Nonce)
		if err != nil {
			t.Fatal(err)
		}
		if c+1 == at {
			honest, err := s.fam.Hash(next)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); ; seed++ {
				if seed == 64 {
					t.Fatal("no drift direction misses the LSH buckets")
				}
				drift := tensor.NewRNG(seed).NormalVector(len(next), 0, 1)
				drift.Scale(0.7 * s.beta / drift.Norm2())
				drifted, err := next.Add(drift)
				if err != nil {
					t.Fatal(err)
				}
				if d, err := s.fam.Hash(drifted); err == nil && !lsh.Match(honest, d) {
					next = drifted
					break
				}
			}
		}
		trace.Checkpoints = append(trace.Checkpoints, next)
		trace.Steps = append(trace.Steps, (c+1)*s.p.CheckpointEvery)
	}
	update, err := BindFinalCheckpoint(trace, s.p.Global, nil)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := CommitTrace(nil, trace.Checkpoints, s.fam)
	if err != nil {
		t.Fatal(err)
	}
	result := &EpochResult{
		WorkerID: "drift", Update: update, DataSize: s.ds.Len(), NumCheckpoints: len(trace.Checkpoints),
	}
	ec.Apply(result)
	return &traceOpener{trace: trace, fam: s.fam}, result
}

// TestLeafStoreNeverAsksAnAdaptiveOpenerTwice: a worker that would answer a
// second request for a leaf with a different vector never gets one — not
// when adjacent sampled intervals share the leaf (v1), not when a
// double-check and a later or earlier input do (v2). The drifted trace has no
// streamed tree: under merkle=true it is re-committed at each proof pull,
// under merkle=false once, whole.
func TestLeafStoreNeverAsksAnAdaptiveOpenerTwice(t *testing.T) {
	for _, scheme := range []Scheme{SchemeV1, SchemeV2} {
		for _, merkle := range []bool{false, true} {
			for _, workers := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s/merkle=%v/workers=%d", scheme, merkle, workers), func(t *testing.T) {
					s := newStoreSetup(t, scheme, merkle, 3)
					opener, result := s.opener, s.result
					if scheme == SchemeV2 {
						var drifted *traceOpener
						drifted, result = driftedTrace(t, s, 2)
						opener = drifted
						if !merkle {
							opener = commitWhole(t, drifted.trace, s.fam, result)
						}
					}
					adaptive := &adaptiveOpener{inner: opener, fam: s.fam}
					out, err := s.verifier(t, scheme, workers, 1).VerifySubmission(adaptive, s.ds, result, s.p)
					if err != nil {
						t.Fatal(err)
					}
					if !out.Accepted {
						t.Fatalf("rejected: %s", out.FailReason)
					}
					if scheme == SchemeV2 && out.DoubleChecks == 0 {
						t.Fatal("the drifted checkpoint did not force a double-check")
					}
					if adaptive.adapted != 0 {
						t.Errorf("%d leaves were requested a second time", adaptive.adapted)
					}
				})
			}
		}
	}
}

// corruptingOpener serves an honest worker's proofs after a mutation.
type corruptingOpener struct {
	inner  ProofOpener
	mutate func(*LeafProof)
}

func (o *corruptingOpener) OpenCheckpoint(idx int) (tensor.Vector, error) {
	return o.inner.OpenCheckpoint(idx)
}

func (o *corruptingOpener) OpenProof(idx int) (LeafProof, error) {
	lp, err := o.inner.OpenProof(idx)
	if err == nil {
		lp.Proof.Siblings = slices.Clone(lp.Proof.Siblings)
		lp.Digest = slices.Clone(lp.Digest)
		o.mutate(&lp)
	}
	return lp, err
}

// FuzzLeafStoreRejectsMalformedProofs feeds the store proofs that answer for
// the wrong leaf, carry no or a wrong digest, are too shallow, too deep or
// oversize, or have a flipped bit: each is a typed rejection that leaves
// nothing remembered and nothing tallied.
func FuzzLeafStoreRejectsMalformedProofs(f *testing.F) {
	for kind := uint8(0); kind < 6; kind++ {
		for _, v2 := range []bool{false, true} {
			f.Add(kind, uint8(1), uint16(3), v2)
		}
	}
	f.Add(uint8(5), uint8(2), uint16(200), true)
	setups := map[bool]*storeSetup{}
	f.Fuzz(func(t *testing.T, kind, leafIdx uint8, arg uint16, v2 bool) {
		scheme := SchemeV1
		if v2 {
			scheme = SchemeV2
		}
		s := setups[v2]
		if s == nil {
			s = newStoreSetup(t, scheme, true, 8)
			setups[v2] = s
		}
		idx := int(leafIdx) % s.result.NumCheckpoints
		mutated := true
		opener := &corruptingOpener{inner: s.worker, mutate: func(lp *LeafProof) {
			switch kind % 6 {
			case 0: // answers for another leaf
				lp.Proof.Index += 1 + int(arg)
			case 1: // no digest riding along (harmless under v1, which sends none)
				mutated = len(lp.Digest) != 0
				lp.Digest = nil
			case 2: // too shallow
				lp.Proof.Siblings = lp.Proof.Siblings[:int(arg)%len(lp.Proof.Siblings)]
			case 3: // too deep / oversize
				lp.Proof.Siblings = append(lp.Proof.Siblings, make([]commitment.Hash, 1+int(arg)%64)...)
			case 4: // one flipped sibling bit
				sib := &lp.Proof.Siblings[int(arg)%len(lp.Proof.Siblings)]
				sib[int(arg>>4)%len(sib)] ^= 1 << (arg % 8)
			case 5: // oversize or malformed digest (ignored under v1, which recomputes the leaf)
				mutated = v2
				lp.Digest = append(lp.Digest, make([]byte, 1+int(arg)%64)...)
			}
		}}
		out := &VerifyOutcome{}
		st := &s.verifier(t, scheme, 0, 1).store
		st.reset(opener, s.result, s.fam, s.result.NumCheckpoints, out)
		w, err := st.weights(idx)
		if !mutated {
			if err != nil {
				t.Fatalf("harmless mutation rejected: %v", err)
			}
			return
		}
		typed := errors.Is(err, ErrProofIndex) || errors.Is(err, ErrNoDigest) ||
			errors.Is(err, commitment.ErrMismatch) || errors.Is(err, commitment.ErrOutOfRange)
		if !typed {
			t.Fatalf("kind %d leaf %d: error %v is not a typed rejection", kind%6, idx, err)
		}
		if l := st.leaves[idx]; w != nil || l.weights != nil || l.digest != nil || l.proofBytes != 0 || l.weightBytes != 0 {
			t.Errorf("kind %d leaf %d: the store remembered %+v of a rejected leaf", kind%6, idx, l)
		}
		if out.CommBytes != 0 || out.CommitBytes != 0 {
			t.Errorf("kind %d leaf %d: rejected pull tallied (%d, %d) bytes", kind%6, idx, out.CommBytes, out.CommitBytes)
		}
	})
}
