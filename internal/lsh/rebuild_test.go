package lsh

import (
	"crypto/sha256"
	"encoding/hex"
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
			before = &fam.lanes[0]
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
		if reused := before == &fam.lanes[0]; reused != s.reuse {
			t.Errorf("step %d: storage reused = %v, want %v (another shape's storage is discarded, not resliced)", i, reused, s.reuse)
		}
		if want := tensor.PackLen(s.params.K*s.params.L, s.dim); len(fam.lanes) != want || cap(fam.lanes) != want {
			t.Fatalf("step %d: projections of len %d cap %d, want exactly %d", i, len(fam.lanes), cap(fam.lanes), want)
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
// same-shape rebuild refills its storage from keyed draws and allocates
// nothing.
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
	if rebuild != 0 {
		t.Errorf("same-shape rebuild allocates %.0f times, want 0: storage is not being refilled", rebuild)
	}
}

// TestFamilyProjectionsAreKeyed: projection (g, f) and its offset depend on
// (seed, g, f, dim) alone, so families of one seed agree wherever their
// shapes overlap, and a shorter dimension is a prefix of a longer one.
func TestFamilyProjectionsAreKeyed(t *testing.T) {
	small, err := NewFamily(40, Params{R: 2, K: 3, L: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewFamily(64, Params{R: 2, K: 5, L: 6}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < small.params.L; g++ {
		for f := 0; f < small.params.K; f++ {
			a := small.projection(g, f)
			if !a.Equal(large.projection(g, f)[:len(a)], 0) || small.offset(g, f) != large.offset(g, f) {
				t.Fatalf("projection (%d, %d) differs between two shapes of one seed", g, f)
			}
		}
	}
}

// projection returns a copy of projection (g, fn), read out of its lane.
func (f *Family) projection(g, fn int) tensor.Vector {
	p := g*f.params.K + fn
	block := f.lanes[p/tensor.LaneBlock*tensor.LaneBlock*f.dim:]
	a := tensor.NewVector(f.dim)
	for i := range a {
		a[i] = block[tensor.LaneBlock*i+p%tensor.LaneBlock]
	}
	return a
}

// offset returns projection (g, fn)'s shift.
func (f *Family) offset(g, fn int) float64 { return f.offsets[g*f.params.K+fn] }

// TestFamilyPinnedDigests pins the digests three families give eight fixed
// vectors, folded through SHA-256. At r = 10⁻¹⁴ a bucket index reads a dot
// product to its last bits, so any change in the projections' draws or in the
// order or rounding of a dot product moves a digest. Every build must
// produce them: amd64 with and without the vector kernels, 386, and
// GOAMD64=v3. No build of this package fuses a multiply-add.
func TestFamilyPinnedDigests(t *testing.T) {
	const dim = 5546
	pinned := []struct {
		params Params
		want   string
	}{
		{Params{R: 1.5, K: 4, L: 4}, "596532e987f17f330ffaa7a168543dd46af85632dfa2fa6cd506d6326ecdcc5d"},
		{Params{R: 1e-14, K: 4, L: 4}, "06e282e330231a16be94e4510bcc67c331404595d50077a63f4f9b77b33a1662"},
		{Params{R: 1e-14, K: 17, L: 1}, "3bf9cd38d4957a85faa5264a16f997c74dbc6adca897007001139a57b19ddaaf"},
		{Params{R: 1e-14, K: 3, L: 3}, "00419361a09b7446fa1ebdd08f850482747d35093c1db5ddf6f0672a2a8a77c0"},
	}
	for _, portable := range []bool{false, true} {
		prev := tensor.SetPortable(portable)
		for _, p := range pinned {
			f, err := NewFamily(dim, p.params, 2023)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			rng := tensor.NewRNG(7)
			for v := 0; v < 8; v++ {
				d, err := f.Hash(rng.NormalVector(dim, 0, 2))
				if err != nil {
					t.Fatal(err)
				}
				h.Write(d.Encode())
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != p.want {
				t.Errorf("%+v (portable %v): digests fold to %s, pinned %s", p.params, portable, got, p.want)
			}
		}
		tensor.SetPortable(prev)
	}
}
