package tensor

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"rpol/internal/parallel"
)

// testMatrix builds a deterministic dense matrix with scale-varied entries
// so float non-associativity would be visible if chunking re-ordered sums.
func testMatrix(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Row(i)[j] = math.Sin(float64(i*cols+j)) * math.Pow(10, float64((i+j)%9)-4)
		}
	}
	return m
}

func testVector(n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = math.Cos(float64(i)*0.9) * math.Pow(10, float64(i%7)-3)
	}
	return v
}

func bitsEqual(t *testing.T, name string, got, want Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: bit mismatch at %d: %x vs %x",
				name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestPoolKernelsBitIdentical verifies the pooled batch kernels reproduce
// the serial (nil pool) kernels exactly, for every worker count, on shapes
// that exercise multiple chunks and ragged tails.
func TestPoolKernelsBitIdentical(t *testing.T) {
	shapes := []struct{ rows, cols int }{
		{1, 1}, {3, 70}, {70, 3}, {130, 50}, {257, 129},
	}
	type result struct{ fwd, bwd, acc Vector }
	for _, sh := range shapes {
		m := testMatrix(sh.rows, sh.cols)
		for _, batch := range []int{1, 9} {
			x := testMatrix(batch, sh.cols)
			g := testMatrix(batch, sh.rows)
			run := func(p *parallel.Pool) result {
				fwd := NewMatrix(batch, sh.rows)
				pack := NewVector(MulMatPackSize(batch, sh.cols))
				if err := m.MulMatPoolScratch(p, fwd, x, nil, pack); err != nil {
					t.Fatal(err)
				}
				bwd := NewMatrix(batch, sh.cols)
				if err := m.MulMatTPool(p, bwd, g); err != nil {
					t.Fatal(err)
				}
				acc := m.clone()
				if err := acc.AddOuterBatchPool(p, 0.37, g, x); err != nil {
					t.Fatal(err)
				}
				return result{fwd.Data, bwd.Data, acc.Data}
			}
			want := run(nil)
			for _, workers := range []int{1, 2, 8} {
				got := run(parallel.New(workers))
				bitsEqual(t, "MulMatPoolScratch", got.fwd, want.fwd)
				bitsEqual(t, "MulMatTPool", got.bwd, want.bwd)
				bitsEqual(t, "AddOuterBatchPool", got.acc, want.acc)
			}
		}
	}
}

func TestIntoKernels(t *testing.T) {
	m := testMatrix(17, 23)
	x := testVector(23)
	xt := testVector(17)
	// The reference chains: one ascending sum per output element.
	want, wantT := NewVector(17), NewVector(23)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			want[i] += float64(v * x[j])
			wantT[j] += float64(v * xt[i])
		}
	}
	// Dirty destinations: Into kernels must overwrite, not accumulate.
	y := testVector(17)
	if err := m.MulVecInto(y, x); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "MulVecInto", y, want)
	yt := testVector(23)
	if err := m.MulVecTInto(yt, xt); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "MulVecTInto", yt, wantT)

	if err := m.MulVecInto(NewVector(3), x); err == nil {
		t.Error("MulVecInto accepted wrong-length destination")
	}
	if err := m.MulVecTInto(NewVector(3), xt); err == nil {
		t.Error("MulVecTInto accepted wrong-length destination")
	}
}

// TestSpectralNormPoolBitIdentical: the scratch-reusing power iteration must
// keep its estimate bit for bit — pinned on a 40×60 matrix, the value the
// serial and every pooled form gave when a pooled form existed — and stay a
// genuine spectral norm (checked on a matrix with known singular value).
func TestSpectralNormPoolBitIdentical(t *testing.T) {
	const pinned = 0x40e382e69e0c1f54
	got := math.Float64bits(testMatrix(40, 60).SpectralNorm(30))
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Logf("40x60 estimate %#x (pinned on amd64 and 386 only: other targets may fuse multiply-adds)", got)
	} else if got != pinned {
		t.Errorf("40x60 estimate %#x, want %#x", got, uint64(pinned))
	}
	// Diagonal matrix: spectral norm is the largest |entry|.
	d := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		d.Row(i)[i] = float64(i + 1)
	}
	if got := d.SpectralNorm(50); math.Abs(got-4) > 1e-9 {
		t.Errorf("diagonal spectral norm = %v, want 4", got)
	}
}

func TestSpectralNormAllocFree(t *testing.T) {
	m := testMatrix(30, 30)
	allocs := testing.AllocsPerRun(10, func() { m.SpectralNorm(20) })
	// A fixed handful for the v/u/w scratch vectors, independent of the
	// iteration count (the pre-reuse version allocated 2 per iteration).
	if allocs > 6 {
		t.Errorf("SpectralNorm allocates %.0f per call, want <= 6", allocs)
	}
}

func TestAppendEncode(t *testing.T) {
	v := testVector(33)
	want := v.Encode()
	if got := v.AppendEncode(nil); !bytes.Equal(got, want) {
		t.Error("AppendEncode(nil) differs from Encode")
	}
	// Appending after a prefix preserves the prefix and the encoding.
	prefix := []byte{0xaa, 0xbb}
	got := v.AppendEncode(append([]byte(nil), prefix...))
	if !bytes.Equal(got[:2], prefix) {
		t.Error("prefix clobbered")
	}
	if !bytes.Equal(got[2:], want) {
		t.Error("suffix encoding differs from Encode")
	}
	// Reusing a large buffer must not allocate.
	buf := make([]byte, 0, EncodedSize(len(v)))
	allocs := testing.AllocsPerRun(10, func() { buf = v.AppendEncode(buf[:0]) })
	if allocs != 0 {
		t.Errorf("AppendEncode into sized buffer allocates %.0f per call", allocs)
	}
	dec, err := DecodeVector(buf)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "roundtrip", dec, v)
	// Empty vector still emits the 8-byte header.
	if got := Vector(nil).AppendEncode(nil); len(got) != 8 {
		t.Errorf("empty vector encodes to %d bytes, want 8", len(got))
	}
}
