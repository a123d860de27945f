package rpol

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"rpol/internal/commitment"
	"rpol/internal/fsio"
	"rpol/internal/journal"
	"rpol/internal/tensor"
)

// challengeIndices re-derives, as the manager does, the intervals an n-leaf
// commitment to root by worker at epoch is challenged on: q of them, drawn
// by the verifier's sampler reseeded with the challenge seed under key.
func challengeIndices(key []byte, epoch int, worker string, root commitment.Hash, n, q int) []int {
	return drawWith(newChallenger(key), epoch, worker, root, n, q)
}

// drawWith is challengeIndices under the challenge key c holds.
func drawWith(c *challenger, epoch int, worker string, root commitment.Hash, n, q int) []int {
	seed := c.seed(epoch, &EpochResult{WorkerID: worker, MerkleRoot: root, NumCheckpoints: n})
	v := &Verifier{Samples: q, Sampler: tensor.NewRNG(seed)}
	return v.sampleIntervals(n)
}

// challengeTune is a four-worker pool whose challenge samples 3 of its 10
// intervals, so each draw is one of 720.
func challengeTune(cfg *ManagerConfig) {
	cfg.StepsPerEpoch, cfg.CheckpointEvery, cfg.Samples = 30, 3, 3
}

// drawsOf runs one epoch of mgr and returns each responsive worker's
// sampled intervals by ID.
func drawsOf(t *testing.T, mgr *Manager) map[string][]int {
	t.Helper()
	report, err := mgr.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	draws := make(map[string][]int)
	for _, o := range report.Outcomes {
		if o.SampledCheckpoints != nil {
			draws[o.WorkerID] = o.SampledCheckpoints
		}
	}
	return draws
}

// TestChallengeIsAFunctionOfTheCommitment: a submission's sampled intervals
// depend on its own commitment and nothing else. Absenting or reordering
// another worker leaves every other worker's intervals as they were; each
// input of the derivation — a root bit, the epoch, the key, the leaf count,
// the worker — moves them.
func TestChallengeIsAFunctionOfTheCommitment(t *testing.T) {
	base, _ := buildTestPool(t, 4, nil, challengeTune)
	want := drawsOf(t, base)
	if len(want) != 4 {
		t.Fatalf("baseline draws %v, want one per worker", want)
	}
	absent := func(i int) func(*Manager) {
		return func(m *Manager) { m.workers[i] = &flakyWorker{Worker: m.workers[i], cause: ErrWorkerUnavailable} }
	}
	reverse := func(m *Manager) { slices.Reverse(m.workers) }
	for _, tc := range []struct {
		name       string
		concurrent bool
		alter      func(*Manager)
		drawn      int
	}{
		{"worker wB absent", false, absent(1), 3},
		{"worker wA absent, concurrent collection", true, absent(0), 3},
		{"workers reversed", false, reverse, 4},
		{"workers reversed, concurrent collection", true, reverse, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mgr, _ := buildTestPool(t, 4, nil, func(cfg *ManagerConfig) {
				challengeTune(cfg)
				cfg.ConcurrentCollection = tc.concurrent
			})
			tc.alter(mgr)
			got := drawsOf(t, mgr)
			if len(got) != tc.drawn {
				t.Fatalf("%d workers drawn, want %d", len(got), tc.drawn)
			}
			for id, draw := range got {
				if !slices.Equal(draw, want[id]) {
					t.Errorf("%s drew %v, %v in the baseline", id, draw, want[id])
				}
			}
		})
	}

	key, root := []byte("master"), commitment.Hash(sha256.Sum256([]byte("commitment")))
	const epoch, n, q = 2, 101, 3
	ref := challengeIndices(key, epoch, "wA", root, n, q)
	flip := func(bit int) commitment.Hash {
		r := root
		r[bit/8] ^= 1 << (bit % 8)
		return r
	}
	for name, got := range map[string][]int{
		"root bit 0 flipped":   challengeIndices(key, epoch, "wA", flip(0), n, q),
		"root bit 255 flipped": challengeIndices(key, epoch, "wA", flip(255), n, q),
		"next epoch":           challengeIndices(key, epoch+1, "wA", root, n, q),
		"another key":          challengeIndices([]byte("master2"), epoch, "wA", root, n, q),
		"one more leaf":        challengeIndices(key, epoch, "wA", root, n+1, q),
		"another worker":       challengeIndices(key, epoch, "wB", root, n, q),
	} {
		if slices.Equal(got, ref) {
			t.Errorf("%s: drew %v, the same as the unchanged commitment", name, got)
		}
	}
}

// TestChallengeSameAcrossConfigurations: the verdicts, the sampled
// intervals, the verification bytes, β and the global model are the same for
// every compute-pool size, collection mode and journal setting. A dodger
// among the workers makes the verdicts depend on the draw.
func TestChallengeSameAcrossConfigurations(t *testing.T) {
	const epochs = 2
	var want string
	for _, workers := range []int{0, 1, 8} {
		for _, concurrent := range []bool{false, true} {
			for _, journaled := range []bool{false, true} {
				var j *journal.Journal
				if journaled {
					var err error
					if j, err = journal.Create(fsio.OS, filepath.Join(t.TempDir(), "epoch.wal"), nil); err != nil {
						t.Fatal(err)
					}
				}
				setWorkers(t, workers)
				mgr, _ := buildTestPool(t, 4, func(w Worker) Worker {
					return &dodger{HonestWorker: w.(*HonestWorker), forged: 4}
				}, func(cfg *ManagerConfig) {
					challengeTune(cfg)
					cfg.ConcurrentCollection, cfg.Journal = concurrent, j
				})
				var got string
				for e := 0; e < epochs; e++ {
					report, err := mgr.RunEpoch()
					if err != nil {
						t.Fatal(err)
					}
					got += fmt.Sprintf("epoch %d β=%v comm=%d\n", e, report.Calibration.Beta, report.VerifyCommBytes)
					for _, o := range report.Outcomes {
						got += fmt.Sprintf("  %s %s %q %v comm=%d steps=%d\n", o.WorkerID, o.Outcome,
							reasonText(o.FailReason), o.SampledCheckpoints, o.CommBytes, o.ReexecSteps)
					}
				}
				got += fmt.Sprintf("global %x\n", fsio.Checksum(mgr.Global().Encode()))
				if j != nil {
					if err := j.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("workers=%d concurrent=%v journal=%v:\n%s\nwant (workers=0, serial, no journal):\n%s",
						workers, concurrent, journaled, got, want)
				}
			}
		}
	}
}

// TestChallengeGolden pins the challenge for fixed inputs, against the
// derivation written out: K_c = HMAC-SHA256(MasterKey, "rpol/challenge-key"),
// seed = the first 8 bytes, big-endian, sign bit cleared, of HMAC-SHA256(K_c,
// be64(epoch) ‖ be64(len(id)) ‖ id ‖ root ‖ be64(n)), and indices =
// Perm(n−1)[:q] from a sampler seeded with it. It runs on every
// architecture: the draw must not depend on the word size.
func TestChallengeGolden(t *testing.T) {
	spec := func(key []byte, epoch int, id string, root commitment.Hash, n int) int64 {
		kc := hmac.New(sha256.New, key)
		kc.Write([]byte("rpol/challenge-key"))
		mac := hmac.New(sha256.New, kc.Sum(nil))
		var in []byte
		in = binary.BigEndian.AppendUint64(in, uint64(epoch))
		in = binary.BigEndian.AppendUint64(in, uint64(len(id)))
		in = append(in, id...)
		in = append(in, root[:]...)
		in = binary.BigEndian.AppendUint64(in, uint64(n))
		mac.Write(in)
		return int64(binary.BigEndian.Uint64(mac.Sum(nil)) &^ (1 << 63))
	}
	for _, tc := range []struct {
		key   string
		epoch int
		id    string
		root  string
		n, q  int
		want  []int
	}{
		{"master", 0, "wA", "commitment", 11, 3, []int{5, 4, 9}},
		{"master", 7, "worker-03", "commitment", 11, 3, []int{7, 0, 2}},
		{"pool-0/nonce-master", 41, "worker-00", "another commitment", 101, 5, []int{38, 47, 49, 17, 91}},
		{"master", 0, "wA", "commitment", 4, 3, []int{0, 1, 2}},
	} {
		root := commitment.Hash(sha256.Sum256([]byte(tc.root)))
		result := &EpochResult{WorkerID: tc.id, MerkleRoot: root, NumCheckpoints: tc.n}
		if got, want := newChallenger([]byte(tc.key)).seed(tc.epoch, result), spec([]byte(tc.key), tc.epoch, tc.id, root, tc.n); got != want {
			t.Errorf("%+v: seed %d, the derivation gives %d", tc, got, want)
		}
		if got := challengeIndices([]byte(tc.key), tc.epoch, tc.id, root, tc.n, tc.q); !slices.Equal(got, tc.want) {
			t.Errorf("key %q epoch %d worker %q root %q n=%d q=%d: indices %v, want %v",
				tc.key, tc.epoch, tc.id, tc.root, tc.n, tc.q, got, tc.want)
		}
	}
}

// TestChallengeAllocs: deriving a submission's challenge and reseeding the
// sampler with it allocate nothing.
func TestChallengeAllocs(t *testing.T) {
	c := newChallenger([]byte("master"))
	sampler := tensor.NewRNG(0)
	result := &EpochResult{WorkerID: "worker-07", MerkleRoot: sha256.Sum256([]byte("root")), NumCheckpoints: 41}
	epoch := 0
	if allocs := testing.AllocsPerRun(100, func() {
		epoch++
		sampler.Seed(c.seed(epoch, result))
	}); allocs != 0 {
		t.Fatalf("challenge derivation: %v allocations per submission, want 0", allocs)
	}
}

// grind plays a worker that forged interval forged of an n-leaf trace and
// may re-commit up to g times: it keeps the first root whose challenge, as
// its oracle derives it, misses the forged interval (or the last root tried).
func grind(oracle *challenger, trial, forged, n, q, g int) commitment.Hash {
	for attempt := 0; ; attempt++ {
		root := commitment.Hash(sha256.Sum256(fmt.Appendf(nil, "grind/%d/%d", trial, attempt)))
		if attempt == g-1 || !slices.Contains(drawWith(oracle, trial, "grinder", root, n, q), forged) {
			return root
		}
	}
}

// TestChallengeResistsGrinding: a worker that re-commits up to 64 times
// gains nothing unless it can evaluate the challenge. Handed the manager's
// key, the grinder dodges the challenge in at least 99 % of trials — the
// control that shows the test can fail. With any other key, the master key
// keyed without the challenge label included, its forged interval is
// sampled at the rate q/(n−1) of a worker that never grinds, within 4σ.
func TestChallengeResistsGrinding(t *testing.T) {
	const trials, g, n, q = 2000, 64, 11, 3
	key := []byte("pool-manager/nonce-master")
	manager := newChallenger(key)
	// caught counts the trials in which the manager's challenge samples the
	// interval a grinder with oracle forged.
	caught := func(oracle *challenger) int {
		hits := 0
		for trial := 0; trial < trials; trial++ {
			forged := trial % (n - 1)
			root := grind(oracle, trial, forged, n, q, g)
			if slices.Contains(drawWith(manager, trial, "grinder", root, n, q), forged) {
				hits++
			}
		}
		return hits
	}
	if hits := caught(newChallenger(key)); hits > trials/100 {
		t.Errorf("with the manager's key the grinder was caught in %d of %d trials, want at most 1 %%", hits, trials)
	}
	p := float64(q) / float64(n-1)
	bound := 4 * math.Sqrt(p*(1-p)/trials)
	for name, oracle := range map[string]*challenger{
		"a guessed key":      newChallenger([]byte("a guessed key")),
		"another pool's key": newChallenger([]byte("pool-manager-2/nonce-master")),
		// The key prf.DeriveNonce uses, with no challenge label.
		"the master key itself": {mac: hmac.New(sha256.New, key)},
	} {
		if rate := float64(caught(oracle)) / trials; math.Abs(rate-p) > bound {
			t.Errorf("oracle keyed with %s: caught at rate %.4f, want %.4f ± %.4f", name, rate, p, bound)
		}
	}
}
