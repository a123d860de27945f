package adversary

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/modelzoo"
	"rpol/internal/nn"
	"rpol/internal/prf"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// attackerKind builds one kind of attacker on a network and shard of its own.
type attackerKind struct {
	name  string
	build func(t *testing.T, net *nn.Network, shard *dataset.Dataset) rpol.Worker
}

// attackerKinds are the forging attackers, each at settings that exercise
// its whole forgery: Adv2 spoofs, and one Truncator truncates while the
// other over-claims, padding its trace with copies of its final checkpoint.
func attackerKinds(dim int) []attackerKind {
	must := func(t *testing.T, w rpol.Worker, err error) rpol.Worker {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	return []attackerKind{
		{"Adv1", func(t *testing.T, _ *nn.Network, shard *dataset.Dataset) rpol.Worker {
			return NewAdv1("adv1", gpu.GT4, shard.Len())
		}},
		{"Adv2", func(t *testing.T, net *nn.Network, shard *dataset.Dataset) rpol.Worker {
			w, err := NewAdv2("adv2", gpu.GA10, 7, net, shard, 0.1, 0.5)
			return must(t, w, err)
		}},
		{"Fabricator", func(t *testing.T, _ *nn.Network, shard *dataset.Dataset) rpol.Worker {
			return newFabricator("fab", gpu.GT4, 9, 0.5, shard.Len())
		}},
		{"WrongInit", func(t *testing.T, net *nn.Network, shard *dataset.Dataset) rpol.Worker {
			w, err := NewWrongInit("wrong", gpu.GA10, 7, net, shard, tensor.NewRNG(3).NormalVector(dim, 0, 0.01))
			return must(t, w, err)
		}},
		{"UpdateScaler", func(t *testing.T, net *nn.Network, shard *dataset.Dataset) rpol.Worker {
			w, err := newUpdateScaler("scaler", gpu.GA10, 7, net, shard, 3)
			return must(t, w, err)
		}},
		{"Truncator", func(t *testing.T, net *nn.Network, shard *dataset.Dataset) rpol.Worker {
			w, err := newTruncator("trunc", gpu.GA10, 7, net, shard, 2)
			return must(t, w, err)
		}},
		{"Truncator/over-claim", func(t *testing.T, net *nn.Network, shard *dataset.Dataset) rpol.Worker {
			w, err := newTruncator("over", gpu.GA10, 7, net, shard, 6)
			return must(t, w, err)
		}},
	}
}

// opener is a pool worker that exposes its last trace, as every attacker
// does.
type opener interface {
	rpol.Worker
	LastTrace() *rpol.Trace
}

// steadyBytes returns the mean heap bytes a call of f allocates once a first,
// warm-up call has given every owner its buffers, with the collector off.
func steadyBytes(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestAttackersAllocateNoModelVectorPastTheirFirstEpoch is the attackers'
// steady-state guard, rpol's TestOwnersAllocateNoModelVectorPastTheirFirstEpoch
// for the forging adversaries: past its first epoch, each one's RunEpoch
// allocates less than half a model vector — proofs, digests, trace headers —
// however many checkpoints it forges, trains or pads.
func TestAttackersAllocateNoModelVectorPastTheirFirstEpoch(t *testing.T) {
	spec, err := modelzoo.Get("resnet18-cifar10")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []rpol.Scheme{rpol.SchemeV1, rpol.SchemeV2} {
		t.Run(scheme.String(), func(t *testing.T) {
			net0, _, _, err := spec.BuildProxy(21)
			if err != nil {
				t.Fatal(err)
			}
			p := rpol.TaskParams{
				Global:          net0.ParamVector(),
				Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: spec.ProxyBatchSize},
				Nonce:           0x5eed,
				Steps:           11,
				CheckpointEvery: 3,
			}
			if scheme == rpol.SchemeV2 {
				if p.LSH, err = lsh.NewFamily(len(p.Global), lsh.Params{R: 1, K: 4, L: 4}, 3); err != nil {
					t.Fatal(err)
				}
			}
			vector := float64(tensor.EncodedSize(len(p.Global)))
			for _, kind := range attackerKinds(len(p.Global)) {
				net, shard, _, err := spec.BuildProxy(21)
				if err != nil {
					t.Fatal(err)
				}
				adv := kind.build(t, net, shard)
				got := steadyBytes(3, func() {
					if _, err := adv.RunEpoch(p); err != nil {
						t.Fatalf("%s: %v", kind.name, err)
					}
				})
				if got > vector/2 {
					t.Errorf("%s allocates %.0f bytes per epoch past its first, %.2f model vectors: a model-sized buffer lost its owner", kind.name, got, got/vector)
				}
			}
		})
	}
}

// TestAttackersRefillBitIdentically runs each attacker for three epochs —
// the second from its own previous final checkpoint — and holds every epoch
// to a freshly built attacker of the same kind: the same result, root,
// update and openings, and a task vector the epoch never wrote. The
// Fabricator's fresh twin first draws the noise the reused one drew in its
// earlier epochs, so both draw the epoch's noise from the same place.
func TestAttackersRefillBitIdentically(t *testing.T) {
	for _, scheme := range []rpol.Scheme{rpol.SchemeV1, rpol.SchemeV2} {
		t.Run(scheme.String(), func(t *testing.T) {
			net0, _ := advTask(t, 60)
			base := advParams(net0.ParamVector())
			if scheme == rpol.SchemeV2 {
				fam, err := lsh.NewFamily(len(base.Global), lsh.Params{R: 1, K: 2, L: 2}, 3)
				if err != nil {
					t.Fatal(err)
				}
				base.LSH = fam
			}
			for _, kind := range attackerKinds(len(base.Global)) {
				net, shard := advTask(t, 61)
				adv := kind.build(t, net, shard).(opener)
				drawn := 0
				for epoch := 0; epoch < 3; epoch++ {
					p := base
					p.Epoch, p.Nonce = epoch, base.Nonce+prf.Nonce(epoch)
					switch epoch {
					case 1:
						p.Global = adv.LastTrace().Final()
					case 2:
						p.Global = base.Global.Clone()
						p.Global.Scale(0.5)
					}
					task := p.Global.Clone()
					got, err := adv.RunEpoch(p)
					if err != nil {
						t.Fatal(err)
					}
					if !p.Global.Equal(task, 0) {
						t.Fatalf("%s epoch %d wrote its task vector", kind.name, epoch)
					}

					freshNet, _ := advTask(t, 61)
					fresh := kind.build(t, freshNet, shard).(opener)
					if f, ok := fresh.(*Fabricator); ok {
						f.rng.FillNormal(tensor.NewVector(drawn), 0, 1)
						drawn += (p.NumCheckpoints() - 1) * len(p.Global)
					}
					p.Global = task
					want, err := fresh.RunEpoch(p)
					if err != nil {
						t.Fatal(err)
					}
					if got.MerkleRoot != want.MerkleRoot || got.NumCheckpoints != want.NumCheckpoints ||
						got.DataSize != want.DataSize || got.Epoch != want.Epoch {
						t.Fatalf("%s epoch %d: root %x over %d checkpoints, a fresh attacker's %x over %d",
							kind.name, epoch, got.MerkleRoot, got.NumCheckpoints, want.MerkleRoot, want.NumCheckpoints)
					}
					if !got.Update.Equal(want.Update, 0) {
						t.Fatalf("%s epoch %d: update differs from a fresh attacker's", kind.name, epoch)
					}
					for i := 0; i < got.NumCheckpoints; i++ {
						gw, err := adv.OpenCheckpoint(i)
						if err != nil {
							t.Fatal(err)
						}
						ww, err := fresh.OpenCheckpoint(i)
						if err != nil {
							t.Fatal(err)
						}
						if !gw.Equal(ww, 0) {
							t.Fatalf("%s epoch %d: opening %d differs from a fresh attacker's", kind.name, epoch, i)
						}
						gp, err := adv.OpenProof(i)
						if err != nil {
							t.Fatal(err)
						}
						wp, err := fresh.OpenProof(i)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(gp, wp) {
							t.Fatalf("%s epoch %d: proof %d differs from a fresh attacker's", kind.name, epoch, i)
						}
					}
				}
			}
		})
	}
}
