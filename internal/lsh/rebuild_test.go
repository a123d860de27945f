package lsh

import (
	"reflect"
	"testing"

	"rpol/internal/tensor"
)

// TestRebuildFamilyMatchesNewFamily chains rebuilds through a table that
// grows and shrinks K·L, changes R and the seed, and changes dim: each
// rebuilt family must equal NewFamily's bit for bit — projections, offsets
// and the digest of a fixed vector — whatever storage it inherited.
func TestRebuildFamilyMatchesNewFamily(t *testing.T) {
	steps := []struct {
		dim    int
		params Params
		seed   int64
		reuse  bool // same dim, K and L as the step before: storage is refilled
	}{
		{dim: 40, params: Params{R: 2, K: 3, L: 4}, seed: 1},
		{dim: 40, params: Params{R: 2, K: 3, L: 4}, seed: 2, reuse: true},
		{dim: 40, params: Params{R: 0.5, K: 3, L: 4}, seed: 2, reuse: true},
		{dim: 40, params: Params{R: 2, K: 5, L: 6}, seed: 3},
		{dim: 40, params: Params{R: 2, K: 2, L: 2}, seed: 3},
		{dim: 64, params: Params{R: 2, K: 2, L: 2}, seed: 3},
		{dim: 16, params: Params{R: 2, K: 2, L: 2}, seed: 4},
	}
	var fam *Family
	for i, s := range steps {
		var before *float64
		if fam != nil {
			before = &fam.projections[0][0][0]
		}
		var err error
		if fam, err = RebuildFamily(fam, s.dim, s.params, s.seed); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want, err := NewFamily(s.dim, s.params, s.seed)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !reflect.DeepEqual(fam, want) {
			t.Fatalf("step %d: rebuilt family differs from NewFamily(%d, %+v, %d)", i, s.dim, s.params, s.seed)
		}
		x := tensor.NewRNG(99).NormalVector(s.dim, 0, 1)
		got, err := fam.Hash(x)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		ref, err := want.Hash(x)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("step %d: digest %v, NewFamily's %v", i, got, ref)
		}
		if reused := before == &fam.projections[0][0][0]; reused != s.reuse {
			t.Errorf("step %d: storage reused = %v, want %v (another shape's storage is discarded, not resliced)", i, reused, s.reuse)
		}
		for g := range fam.projections {
			for _, a := range fam.projections[g] {
				if len(a) != s.dim || cap(a) != s.dim {
					t.Fatalf("step %d: projection of len %d cap %d, want exactly %d", i, len(a), cap(a), s.dim)
				}
			}
		}
	}
	// A rejected rebuild leaves the previous family intact.
	want, _ := NewFamily(16, Params{R: 2, K: 2, L: 2}, 4)
	if _, err := RebuildFamily(fam, 16, Params{R: -1, K: 2, L: 2}, 5); err == nil {
		t.Error("rebuild accepted invalid params")
	}
	if !reflect.DeepEqual(fam, want) {
		t.Error("a rejected rebuild modified the previous family")
	}
}

// TestRebuildFamilySameShapeAllocatesNoVectors guards the steady state: a
// same-shape rebuild allocates its seeded RNG and nothing else.
func TestRebuildFamilySameShapeAllocatesNoVectors(t *testing.T) {
	params := Params{R: 2, K: 4, L: 4}
	fam, err := NewFamily(512, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(2)
	rebuild := testing.AllocsPerRun(20, func() {
		if fam, err = RebuildFamily(fam, 512, params, seed); err != nil {
			t.Fatal(err)
		}
		seed++
	})
	var rng *tensor.RNG
	rngOnly := testing.AllocsPerRun(20, func() { rng = tensor.NewRNG(seed) })
	_ = rng
	if rebuild != rngOnly {
		t.Errorf("same-shape rebuild allocates %.0f times, its RNG alone %.0f: storage is not being refilled", rebuild, rngOnly)
	}
}
