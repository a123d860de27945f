package lsh

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"rpol/internal/tensor"
)

func TestCollisionProbEndpoints(t *testing.T) {
	if p := CollisionProb(0, 1); p != 1 {
		t.Errorf("p(0) = %v, want 1", p)
	}
	if p := CollisionProb(1, 0); p != 0 {
		t.Errorf("p with r=0 = %v, want 0", p)
	}
	// Far points almost never collide.
	if p := CollisionProb(1000, 1); p > 0.01 {
		t.Errorf("p(1000,1) = %v, want ≈ 0", p)
	}
	// Near points almost always collide.
	if p := CollisionProb(0.001, 1); p < 0.99 {
		t.Errorf("p(0.001,1) = %v, want ≈ 1", p)
	}
}

func TestCollisionProbMonotoneInDistance(t *testing.T) {
	prev := 1.0
	for c := 0.1; c < 20; c += 0.1 {
		p := CollisionProb(c, 2)
		if p > prev+1e-12 {
			t.Fatalf("p not monotone at c=%v: %v > %v", c, p, prev)
		}
		prev = p
	}
}

func TestMatchProbShape(t *testing.T) {
	p := Params{R: 1, K: 4, L: 4}
	// More distance ⇒ lower match probability.
	if MatchProb(0.1, p) <= MatchProb(5, p) {
		t.Error("match prob must decrease with distance")
	}
	// Larger k sharpens (lowers) match prob at fixed distance.
	if MatchProb(1, Params{R: 1, K: 8, L: 4}) >= MatchProb(1, Params{R: 1, K: 1, L: 4}) {
		t.Error("larger k must lower match prob")
	}
	// Larger l raises match prob.
	if MatchProb(1, Params{R: 1, K: 4, L: 8}) <= MatchProb(1, Params{R: 1, K: 4, L: 1}) {
		t.Error("larger l must raise match prob")
	}
}

func TestMatchProbBounds(t *testing.T) {
	f := func(cRaw, rRaw float64, kRaw, lRaw uint8) bool {
		c := math.Abs(cRaw)
		r := math.Abs(rRaw) + 0.01
		if math.IsNaN(c) || math.IsInf(c, 0) || c > 1e100 || r > 1e100 {
			return true
		}
		p := Params{R: r, K: int(kRaw%8) + 1, L: int(lRaw%8) + 1}
		m := MatchProb(c, p)
		return m >= 0 && m <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOptimizeSeparatesAlphaBeta(t *testing.T) {
	// With β = 5α and budget 16, the paper targets Pr(α) ≈ 95 %, Pr(β) ≈ 5 %.
	alpha := 0.2
	beta := 1.0
	params, fnr, fpr, err := Optimize(alpha, beta, OptimizeOptions{KLsh: 16})
	if err != nil {
		t.Fatal(err)
	}
	if params.K*params.L > 16 {
		t.Errorf("budget violated: k·l = %d", params.K*params.L)
	}
	if fnr > 0.10 {
		t.Errorf("worst-case FNR = %v, want ≤ 0.10", fnr)
	}
	if fpr > 0.10 {
		t.Errorf("worst-case FPR = %v, want ≤ 0.10", fpr)
	}
	if got := MatchProb(alpha, params); got < 0.9 {
		t.Errorf("Pr(α) = %v, want ≥ 0.9", got)
	}
	if got := MatchProb(beta, params); got > 0.1 {
		t.Errorf("Pr(β) = %v, want ≤ 0.1", got)
	}
}

func TestOptimizeValidation(t *testing.T) {
	if _, _, _, err := Optimize(0, 1, OptimizeOptions{}); !errors.Is(err, ErrBadBounds) {
		t.Errorf("err = %v, want ErrBadBounds", err)
	}
	if _, _, _, err := Optimize(1, 0.5, OptimizeOptions{}); !errors.Is(err, ErrBadBounds) {
		t.Errorf("err = %v, want ErrBadBounds", err)
	}
}

func TestParamsValidate(t *testing.T) {
	good := Params{R: 1, K: 2, L: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate = %v", err)
	}
	for _, bad := range []Params{{R: 0, K: 1, L: 1}, {R: 1, K: 0, L: 1}, {R: 1, K: 1, L: 0}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", bad)
		}
	}
}

func TestFamilyDeterministic(t *testing.T) {
	params := Params{R: 4, K: 4, L: 4}
	a, err := NewFamily(16, params, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFamily(16, params, 7)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewRNG(1).NormalVector(16, 0, 1)
	da, err := a.Hash(x)
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Hash(x)
	if err != nil {
		t.Fatal(err)
	}
	if !Match(da, db) {
		t.Error("same family must produce matching digests")
	}
	for i := range da {
		if da[i] != db[i] {
			t.Error("same family must produce identical digests")
		}
	}
}

func TestFamilyValidation(t *testing.T) {
	if _, err := NewFamily(0, Params{R: 1, K: 1, L: 1}, 0); err == nil {
		t.Error("want error for zero dim")
	}
	if _, err := NewFamily(4, Params{R: 0, K: 1, L: 1}, 0); err == nil {
		t.Error("want error for bad params")
	}
	fam, err := NewFamily(4, Params{R: 1, K: 1, L: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fam.Hash(tensor.NewVector(3)); !errors.Is(err, tensor.ErrShapeMismatch) {
		t.Errorf("Hash err = %v", err)
	}
}

func TestFuzzyMatchingBehaviour(t *testing.T) {
	// Nearby vectors (distance ≈ α) should usually match; distant vectors
	// (distance ≈ β) should usually not. This is the core robustness
	// property the verification relies on.
	const dim = 64
	alpha, beta := 0.1, 1.0
	params, _, _, err := Optimize(alpha, beta, OptimizeOptions{KLsh: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(99)
	const trials = 200
	nearMatches, farMatches := 0, 0
	for i := 0; i < trials; i++ {
		fam, err := NewFamily(dim, params, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		base := rng.NormalVector(dim, 0, 1)
		perturb := func(dist float64) tensor.Vector {
			dir := rng.NormalVector(dim, 0, 1)
			dir.Scale(dist / dir.Norm2())
			out, err := base.Add(dir)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		d0, err := fam.Hash(base)
		if err != nil {
			t.Fatal(err)
		}
		dn, err := fam.Hash(perturb(alpha))
		if err != nil {
			t.Fatal(err)
		}
		df, err := fam.Hash(perturb(beta))
		if err != nil {
			t.Fatal(err)
		}
		if Match(d0, dn) {
			nearMatches++
		}
		if Match(d0, df) {
			farMatches++
		}
	}
	nearRate := float64(nearMatches) / trials
	farRate := float64(farMatches) / trials
	if nearRate < 0.85 {
		t.Errorf("near match rate = %v, want ≥ 0.85", nearRate)
	}
	if farRate > 0.15 {
		t.Errorf("far match rate = %v, want ≤ 0.15", farRate)
	}
}

func TestDigestEncodeDecode(t *testing.T) {
	d := Digest{1, 2, 1 << 60}
	if d.Size() != 24 {
		t.Errorf("Size = %d", d.Size())
	}
	got, err := DecodeDigest(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(d) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range d {
		if got[i] != d[i] {
			t.Errorf("round trip mismatch at %d", i)
		}
	}
	if _, err := DecodeDigest([]byte{1, 2, 3}); err == nil {
		t.Error("want error for ragged digest")
	}
}

func TestMatchEdgeCases(t *testing.T) {
	if Match(Digest{1}, Digest{1, 2}) {
		t.Error("different lengths must not match")
	}
	if Match(Digest{1, 2}, Digest{3, 4}) {
		t.Error("disjoint digests must not match")
	}
	if !Match(Digest{1, 9}, Digest{7, 9}) {
		t.Error("one agreeing group suffices")
	}
}

// TestHashMatchesOneChainReference holds the lane-packed projection kernels
// to the definition they replaced — every projection's dot product taken on
// its own with Vector.Dot — at projection counts that leave every remainder
// (K·L = 1, 3, 4, 5, 16, 17, with groups both wider and narrower than four),
// through Hash, on the host's kernels and on the portable ones.
func TestHashMatchesOneChainReference(t *testing.T) {
	const dim = 257
	x := tensor.NewRNG(11).NormalVector(dim, 0, 3)
	for _, kl := range [][2]int{{1, 1}, {3, 1}, {1, 3}, {4, 1}, {2, 2}, {5, 1}, {1, 5}, {4, 4}, {2, 8}, {16, 1}, {1, 16}, {17, 1}, {1, 17}} {
		params := Params{R: 1.5, K: kl[0], L: kl[1]}
		f, err := NewFamily(dim, params, 29)
		if err != nil {
			t.Fatal(err)
		}
		want := make(Digest, params.L)
		for g := range want {
			buf := make([]byte, 8*params.K)
			for fn := 0; fn < params.K; fn++ {
				dot, err := f.projection(g, fn).Dot(x)
				if err != nil {
					t.Fatal(err)
				}
				bucket := int64(math.Floor((dot + f.offset(g, fn)) / params.R))
				binary.LittleEndian.PutUint64(buf[8*fn:], uint64(bucket))
			}
			sum := sha256.Sum256(buf)
			want[g] = binary.LittleEndian.Uint64(sum[:8])
		}
		check := func(how string, got Digest, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("K=%d L=%d %s: %v", params.K, params.L, how, err)
			}
			for g := range want {
				if got[g] != want[g] {
					t.Errorf("K=%d L=%d %s: group %d = %#x, reference %#x", params.K, params.L, how, g, got[g], want[g])
				}
			}
		}
		for _, portable := range []bool{false, true} {
			prev := tensor.SetPortable(portable)
			got, err := f.Hash(x)
			check(fmt.Sprintf("Hash (portable %v)", portable), got, err)
			tensor.SetPortable(prev)
		}
	}
	// The bucket buffer stays off the heap at the usual budget:
	// the digest is the only allocation.
	f, err := NewFamily(dim, Params{R: 1.5, K: 4, L: 4}, 29)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = f.Hash(x) }); allocs > 1 {
		t.Errorf("Hash allocates %.0f times, want only the digest", allocs)
	}
}
