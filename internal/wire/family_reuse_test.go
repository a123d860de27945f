package wire

import (
	"reflect"
	"testing"

	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/netsim"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// familyProbe is a worker that records, per task, the family it was handed
// and that family's digest of a fixed vector at the time of the call.
type familyProbe struct {
	x        tensor.Vector
	families []*lsh.Family
	digests  []lsh.Digest
}

func (w *familyProbe) ID() string              { return "probe" }
func (w *familyProbe) GPUProfile() gpu.Profile { return gpu.GA10 }
func (w *familyProbe) OpenCheckpoint(int) (tensor.Vector, error) {
	return nil, nil
}
func (w *familyProbe) OpenProof(int) (rpol.LeafProof, error) { return rpol.LeafProof{}, nil }
func (w *familyProbe) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	d, err := p.LSH.Hash(w.x)
	if err != nil {
		return nil, err
	}
	w.families = append(w.families, p.LSH)
	w.digests = append(w.digests, d)
	return &rpol.EpochResult{
		WorkerID: "probe", Epoch: p.Epoch, Update: tensor.NewVector(len(p.Global)),
		DataSize: 1, NumCheckpoints: 3,
	}, nil
}

// TestWorkerServerRefillsItsFamily pins the one lifetime the server's family
// reuse makes observable: a task's LSH family hashes exactly as the
// manager's while that task runs, and the server's next task decode refills
// the same storage — whereas DecodeTask itself still allocates a family per
// call.
func TestWorkerServerRefillsItsFamily(t *testing.T) {
	net, _ := wireTask(t, 1)
	p := wireParams(net.ParamVector())
	probe := &familyProbe{x: tensor.NewRNG(5).NormalVector(len(p.Global), 0, 1)}
	hub := testHub(t)
	manager := dialTest(t, hub, "manager")
	server, err := NewWorkerServer(dialTest(t, hub, probe.ID()), probe)
	if err != nil {
		t.Fatal(err)
	}
	var want []lsh.Digest
	var payloads [][]byte
	for epoch, seed := range []int64{77, 78, 79} {
		fam, err := lsh.NewFamily(len(p.Global), lsh.Params{R: 0.5, K: 4, L: 4}, seed)
		if err != nil {
			t.Fatal(err)
		}
		p.Epoch, p.LSH = epoch, fam
		d, err := fam.Hash(probe.x)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
		payload, err := EncodeTask(p)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, payload)
		if err := server.handle(netsim.Message{From: "manager", Kind: KindTask, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		if reply, err := manager.Recv(); err != nil || reply.Kind != KindResult {
			t.Fatalf("epoch %d: reply %+v, %v", epoch, reply, err)
		}
	}
	if !reflect.DeepEqual(probe.digests, want) {
		t.Errorf("digests under the server's families %v, under the manager's %v", probe.digests, want)
	}
	if probe.families[1] != probe.families[0] || probe.families[2] != probe.families[0] {
		t.Error("the server allocated a family per task instead of refilling its own")
	}
	a, err := DecodeTask(payloads[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeTask(payloads[1])
	if err != nil {
		t.Fatal(err)
	}
	if a.LSH == b.LSH || a.LSH == probe.families[0] {
		t.Error("DecodeTask reused a family; it must allocate one per call")
	}
	if d, err := a.LSH.Hash(probe.x); err != nil || !reflect.DeepEqual(d, want[0]) {
		t.Errorf("DecodeTask's family hashes %v, %v; want %v", d, err, want[0])
	}
}
