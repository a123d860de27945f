package pool

import (
	"runtime"
	"testing"

	"rpol/internal/rpol"
)

// TestSealAllocatesNoModelVector: the manager hands out its own θ, so once
// warm a journaled pool evaluates and seals an epoch without allocating a
// model-sized vector. The evaluation network loads θ where it lives, and the
// seal encodes it into the pool's reused scratch.
func TestSealAllocatesNoModelVector(t *testing.T) {
	p, err := New(journaledConfig(t.TempDir(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	stats, err := p.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	report := &rpol.EpochReport{Epoch: stats.Epoch}
	evalAndSeal := func() {
		if _, err := p.TestAccuracy(); err != nil {
			t.Fatal(err)
		}
		if err := p.sealEpoch(stats, report); err != nil {
			t.Fatal(err)
		}
	}
	evalAndSeal() // every scratch buffer reaches its size
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		evalAndSeal()
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	model := uint64(8 * len(p.manager.Global()))
	t.Logf("%d B allocated per evaluation and seal; the model is %d B", perRound, model)
	if perRound >= model {
		t.Errorf("an evaluation and seal allocate %d B, at least one %d B model vector", perRound, model)
	}
}
