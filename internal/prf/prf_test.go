package prf

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestEvalDeterministic(t *testing.T) {
	p1 := New([]byte("key"))
	p2 := New([]byte("key"))
	if p1.Eval(42) != p2.Eval(42) {
		t.Error("same key/input must give same output")
	}
	if p1.Eval(42) == p1.Eval(43) {
		t.Error("different inputs should give different outputs")
	}
	q := New([]byte("other"))
	if p1.Eval(42) == q.Eval(42) {
		t.Error("different keys should give different outputs")
	}
}

func TestNewCopiesKey(t *testing.T) {
	key := []byte("secret")
	p := New(key)
	before := p.Eval(1)
	key[0] = 'X'
	if p.Eval(1) != before {
		t.Error("PRF must not alias the caller's key slice")
	}
}

func TestNewFromNonce(t *testing.T) {
	a := NewFromNonce(1)
	b := NewFromNonce(1)
	c := NewFromNonce(2)
	if a.Eval(7) != b.Eval(7) {
		t.Error("same nonce must give same PRF")
	}
	if a.Eval(7) == c.Eval(7) {
		t.Error("different nonces should give different PRFs")
	}
}

func TestDataIndexRange(t *testing.T) {
	p := NewFromNonce(9)
	for step := 0; step < 10; step++ {
		for n := 0; n < 10; n++ {
			idx, err := p.DataIndex(step, n, 100)
			if err != nil {
				t.Fatal(err)
			}
			if idx < 0 || idx >= 100 {
				t.Fatalf("index %d out of range", idx)
			}
		}
	}
}

func TestDataIndexEmptyDataset(t *testing.T) {
	p := NewFromNonce(9)
	if _, err := p.DataIndex(0, 0, 0); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("err = %v, want ErrEmptyDataset", err)
	}
	if _, err := p.BatchIndices(0, 4, 0); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("err = %v, want ErrEmptyDataset", err)
	}
}

func TestBatchIndicesReproducible(t *testing.T) {
	p := NewFromNonce(1234)
	a, err := p.BatchIndices(5, 16, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.BatchIndices(5, 16, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("batch not reproducible at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBatchesDifferAcrossSteps(t *testing.T) {
	// The stochastic-yet-deterministic property: batches at different steps
	// must be differentiable, or replay attacks would be possible (Sec. V-B).
	p := NewFromNonce(77)
	a, _ := p.BatchIndices(0, 32, 10000)
	b, _ := p.BatchIndices(1, 32, 10000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("consecutive steps produced identical batches")
	}
}

func TestBatchesDifferAcrossNonces(t *testing.T) {
	a, _ := NewFromNonce(1).BatchIndices(0, 32, 10000)
	b, _ := NewFromNonce(2).BatchIndices(0, 32, 10000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different nonces produced identical batches")
	}
}

func TestDeriveNonceStable(t *testing.T) {
	k := []byte("master")
	if DeriveNonce(k, "w1", 3) != DeriveNonce(k, "w1", 3) {
		t.Error("nonce derivation must be deterministic")
	}
	if DeriveNonce(k, "w1", 3) == DeriveNonce(k, "w1", 4) {
		t.Error("different epochs should give different nonces")
	}
	if DeriveNonce(k, "w1", 3) == DeriveNonce(k, "w2", 3) {
		t.Error("different workers should give different nonces")
	}
	if DeriveNonce(k, "w1", 3) == DeriveNonce([]byte("other"), "w1", 3) {
		t.Error("different master keys should give different nonces")
	}
}

func TestSeedFromString(t *testing.T) {
	s1 := SeedFromString("addr-1")
	if s1 != SeedFromString("addr-1") {
		t.Error("seed must be deterministic")
	}
	if s1 == SeedFromString("addr-2") {
		t.Error("different addresses should give different seeds")
	}
	if s1 < 0 {
		t.Error("seed must be non-negative")
	}
}

// Property: DataIndex always lands inside the dataset.
func TestDataIndexRangeProperty(t *testing.T) {
	p := NewFromNonce(5)
	f := func(step, n uint16, size uint16) bool {
		sz := int(size%5000) + 1
		idx, err := p.DataIndex(int(step), int(n), sz)
		return err == nil && idx >= 0 && idx < sz
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: batch distribution is roughly uniform — every index of a small
// dataset is hit when drawing many samples.
func TestBatchCoverage(t *testing.T) {
	p := NewFromNonce(42)
	const size = 10
	seen := make(map[int]bool)
	for step := 0; step < 50; step++ {
		idxs, err := p.BatchIndices(step, 8, size)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range idxs {
			seen[i] = true
		}
	}
	if len(seen) != size {
		t.Errorf("coverage %d/%d after 400 draws", len(seen), size)
	}
}

func TestEvalBytes(t *testing.T) {
	p := New([]byte("k"))
	a := p.evalBytes([]byte("hello"))
	b := p.evalBytes([]byte("hello"))
	if a != b {
		t.Error("evalBytes must be deterministic")
	}
	c := p.evalBytes([]byte("world"))
	if a == c {
		t.Error("evalBytes must differ across inputs")
	}
}

// TestBatchScheduleGolden pins the batch schedule, which is protocol: a
// worker and the manager replaying it must select the same examples, across
// versions as well as within one. Each row was produced by DataIndex before
// BatchIndices shared one keyed HMAC; both forms must keep reproducing it.
func TestBatchScheduleGolden(t *testing.T) {
	golden := []struct {
		nonce      Nonce
		step, size int
		want       []int
	}{
		{0x0, 0, 1, []int{0, 0, 0}},
		{0x1, 0, 200, []int{189, 164, 7, 35}},
		{0x3039, 7, 400, []int{81, 89, 162, 177}},
		{0x3039, 8, 400, []int{298, 4, 272, 153}},
		{0xdeadbeefcafef00d, 39, 181, []int{44, 145, 138, 39}},
		{0xffffffffffffffff, 1 << 20, 1 << 30, []int{721255651, 495102747, 447636028, 1013268791}},
		{0x2a, 1000003, 7, []int{6, 4, 0, 0}},
	}
	for _, g := range golden {
		p := NewFromNonce(g.nonce)
		got, err := p.BatchIndices(g.step, len(g.want), g.size)
		if err != nil {
			t.Fatal(err)
		}
		for n, want := range g.want {
			if got[n] != want {
				t.Errorf("nonce %#x step %d size %d: BatchIndices[%d] = %d, want %d",
					uint64(g.nonce), g.step, g.size, n, got[n], want)
			}
			if idx, err := p.DataIndex(g.step, n, g.size); err != nil || idx != want {
				t.Errorf("nonce %#x step %d size %d: DataIndex(%d) = %d, %v, want %d",
					uint64(g.nonce), g.step, g.size, n, idx, err, want)
			}
		}
	}
}

// TestFillBatchIndicesAllocFree guards the step loop: after the first call
// keyed the HMAC, scheduling a batch allocates nothing.
func TestFillBatchIndicesAllocFree(t *testing.T) {
	p := NewFromNonce(7)
	out := make([]int, 32)
	step := 0
	fill := func() {
		step++
		if err := p.FillBatchIndices(out, step, 181); err != nil {
			t.Fatal(err)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(50, fill); allocs != 0 {
		t.Errorf("FillBatchIndices allocates %.0f times per call, want 0", allocs)
	}
}
