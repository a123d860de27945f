package wire

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/netsim"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// globalProbe is a worker that records the task vector each epoch hands it
// and submits a one-weight update.
type globalProbe struct {
	globals []tensor.Vector
}

func (w *globalProbe) ID() string              { return "probe" }
func (w *globalProbe) GPUProfile() gpu.Profile { return gpu.GA10 }
func (w *globalProbe) OpenCheckpoint(int) (tensor.Vector, error) {
	return nil, nil
}
func (w *globalProbe) OpenProof(int) (rpol.LeafProof, error) { return rpol.LeafProof{}, nil }
func (w *globalProbe) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	w.globals = append(w.globals, p.Global)
	return &rpol.EpochResult{WorkerID: "probe", Epoch: p.Epoch, Update: tensor.Vector{0}, DataSize: 1, NumCheckpoints: 3}, nil
}

// TestWorkerServerTaskDecodeAllocatesNoVector is the server's steady-state
// guard: past its first task, decoding a model-sized v2 task — its global
// model into the server's own vector, its family into the server's own — and
// answering it allocates less than half a model vector, and every task's
// Global is the one vector the server keeps.
func TestWorkerServerTaskDecodeAllocatesNoVector(t *testing.T) {
	p := wireParams(tensor.NewRNG(3).NormalVector(8192, 0, 1))
	fam, err := lsh.NewFamily(len(p.Global), lsh.Params{R: 0.5, K: 4, L: 4}, 77)
	if err != nil {
		t.Fatal(err)
	}
	p.LSH = fam
	payload, err := EncodeTask(p)
	if err != nil {
		t.Fatal(err)
	}
	hub := testHub(t)
	manager := dialTest(t, hub, "manager")
	probe := &globalProbe{}
	server, err := NewWorkerServer(dialTest(t, hub, probe.ID()), probe)
	if err != nil {
		t.Fatal(err)
	}
	task := func() {
		if err := server.handle(netsim.Message{From: "manager", Kind: KindTask, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		reply, err := manager.Recv()
		if err != nil || reply.Kind != KindResult {
			t.Fatalf("reply %+v, %v", reply, err)
		}
		manager.Release(reply)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	task()
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		task()
	}
	runtime.ReadMemStats(&after)
	vector := float64(tensor.EncodedSize(len(p.Global)))
	if got := float64(after.TotalAlloc-before.TotalAlloc) / runs; got > vector/2 {
		t.Errorf("a task past the server's first allocates %.2f model vectors", got/vector)
	}
	for i, g := range probe.globals {
		if !tensor.SameStorage(g, probe.globals[0]) || !g.Equal(p.Global, 0) {
			t.Errorf("task %d: Global is not the server's own vector holding the task's weights", i)
		}
	}
}

// TestRemoteWorkerKeepsItsVectorsUntilNextEpoch pins the proxy's contract: a
// vector it decodes stays what it was until its next RunEpoch — a second
// opening of one checkpoint in an epoch comes in a vector of its own — and
// after that RunEpoch the update and the openings are decoded into the
// previous epoch's vectors, except one that is the new task's Global, which
// is never written.
func TestRemoteWorkerKeepsItsVectorsUntilNextEpoch(t *testing.T) {
	net, ds := wireTask(t, 1)
	hub := testHub(t)
	var wg sync.WaitGroup
	defer func() {
		hub.Close()
		wg.Wait()
	}()
	worker, err := rpol.NewHonestWorker("w", gpu.GA10, 5, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	startServedWorker(t, hub, &wg, worker)
	remote, err := NewRemoteWorker("w", gpu.GA10, testPort(t, hub))
	if err != nil {
		t.Fatal(err)
	}
	open := func(idx int) tensor.Vector {
		v, err := remote.OpenCheckpoint(idx)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	p := wireParams(net.ParamVector())
	p.Steps = 15
	first, err := remote.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := open(1), open(1), open(2)
	if tensor.SameStorage(a, b) || !a.Equal(b, 0) {
		t.Error("a second opening of checkpoint 1 in one epoch did not come in a vector of its own")
	}
	update := first.Update.Clone()

	// The next task trains from the checkpoint-1 opening.
	p.Epoch, p.Global = 1, a
	task := a.Clone()
	second, err := remote.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(task, 0) {
		t.Error("RunEpoch wrote the opening that is its task's Global")
	}
	if !tensor.SameStorage(second.Update, first.Update) || first.Update.Equal(update, 0) {
		t.Error("the second epoch's update was not decoded into the first's")
	}
	d, e := open(1), open(2)
	refilled := func(v tensor.Vector) bool { return tensor.SameStorage(v, b) || tensor.SameStorage(v, c) }
	if !refilled(d) || !refilled(e) || tensor.SameStorage(d, e) {
		t.Error("the second epoch's openings were not decoded into the first epoch's other vectors")
	}
	if !a.Equal(task, 0) {
		t.Error("an opening refilled the vector that is the task's Global")
	}
}
