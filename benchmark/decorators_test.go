package main

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"rpol/internal/commitment"
	"rpol/internal/fsio"
	"rpol/internal/gpu"
	proto "rpol/internal/rpol"
	"rpol/internal/tensor"
)

// callLog records calls as "method(args)" strings, so a test can assert the
// decorator passed on exactly what it was given.
type callLog []string

func (l *callLog) add(format string, args ...any) { *l = append(*l, fmt.Sprintf(format, args...)) }

var errFake = errors.New("fake failure")

type fakeWorker struct{ log callLog }

func (w *fakeWorker) ID() string              { return "worker-07" }
func (w *fakeWorker) GPUProfile() gpu.Profile { return gpu.GA10 }
func (w *fakeWorker) RunEpoch(p proto.TaskParams) (*proto.EpochResult, error) {
	w.log.add("RunEpoch(%d,%d)", p.Epoch, p.Steps)
	return &proto.EpochResult{WorkerID: "worker-07", Epoch: p.Epoch}, errFake
}
func (w *fakeWorker) OpenCheckpoint(idx int) (tensor.Vector, error) {
	w.log.add("OpenCheckpoint(%d)", idx)
	return tensor.Vector{float64(idx)}, errFake
}
func (w *fakeWorker) OpenProof(idx int) (proto.LeafProof, error) {
	w.log.add("OpenProof(%d)", idx)
	return proto.LeafProof{Proof: commitment.MerkleProof{Index: idx}, Digest: []byte{9}}, errFake
}

func TestTracedWorkerForwards(t *testing.T) {
	for _, remote := range []bool{false, true} {
		inner := &fakeWorker{}
		tr := newTracer(&stepClock{})
		w := &tracedWorker{inner: inner, tr: tr, remote: remote}
		epoch := tr.beginEpoch(0, 0)

		if w.ID() != "worker-07" || w.GPUProfile().Name != gpu.GA10.Name {
			t.Errorf("remote=%t: identity not forwarded", remote)
		}
		res, err := w.RunEpoch(proto.TaskParams{Epoch: 4, Steps: 40})
		if !errors.Is(err, errFake) || res == nil || res.Epoch != 4 {
			t.Errorf("remote=%t: RunEpoch returned (%v, %v)", remote, res, err)
		}
		vec, err := w.OpenCheckpoint(3)
		if !errors.Is(err, errFake) || len(vec) != 1 || vec[0] != 3 {
			t.Errorf("remote=%t: OpenCheckpoint returned (%v, %v)", remote, vec, err)
		}
		lp, err := w.OpenProof(5)
		if !errors.Is(err, errFake) || lp.Proof.Index != 5 || len(lp.Digest) != 1 {
			t.Errorf("remote=%t: OpenProof returned (%v, %v)", remote, lp, err)
		}
		tr.endEpoch(epoch)

		want := callLog{"RunEpoch(4,40)", "OpenCheckpoint(3)", "OpenProof(5)"}
		if !reflect.DeepEqual(inner.log, want) {
			t.Errorf("remote=%t: inner saw %v, want %v", remote, inner.log, want)
		}
		names := []string{spanEpoch, spanWorkerRun, spanWorkerOpen, spanWorkerProof}
		if remote {
			names = []string{spanEpoch, spanRemoteRun, spanRemoteOpen, spanRemoteProof}
		}
		spans := tr.snapshot()
		if len(spans) != len(names) {
			t.Fatalf("remote=%t: %d spans, want %d", remote, len(spans), len(names))
		}
		for i, s := range spans {
			if s.Name != names[i] {
				t.Errorf("remote=%t: span %d is %s, want %s", remote, i, s.Name, names[i])
			}
		}
		if len(tr.callers)+len(tr.serving) != 0 {
			t.Errorf("remote=%t: open calls left registered", remote)
		}
	}
}

type fakeStore struct{ log callLog }

func (s *fakeStore) Put(idx int, w tensor.Vector) error {
	s.log.add("Put(%d,%v)", idx, w)
	return errFake
}
func (s *fakeStore) Get(idx int) (tensor.Vector, error) {
	s.log.add("Get(%d)", idx)
	return tensor.Vector{1, 2}, errFake
}
func (s *fakeStore) Len() int     { s.log.add("Len"); return 11 }
func (s *fakeStore) Bytes() int64 { s.log.add("Bytes"); return 22 }
func (s *fakeStore) Clear() error { s.log.add("Clear"); return errFake }

func TestTracedStoreForwards(t *testing.T) {
	inner := &fakeStore{}
	tr := newTracer(&stepClock{})
	s := &tracedStore{inner: inner, tr: tr, worker: "worker-07"}
	epoch := tr.beginEpoch(0, 0)
	if err := s.Put(2, tensor.Vector{7, 8, 9}); !errors.Is(err, errFake) {
		t.Errorf("Put returned %v", err)
	}
	if v, err := s.Get(2); !errors.Is(err, errFake) || len(v) != 2 {
		t.Errorf("Get returned (%v, %v)", v, err)
	}
	if s.Len() != 11 || s.Bytes() != 22 || !errors.Is(s.Clear(), errFake) {
		t.Error("Len/Bytes/Clear not forwarded")
	}
	tr.endEpoch(epoch)
	want := callLog{"Put(2,[7 8 9])", "Get(2)", "Len", "Bytes", "Clear"}
	if !reflect.DeepEqual(inner.log, want) {
		t.Errorf("inner saw %v, want %v", inner.log, want)
	}
	if got, want := s.bytesPut(), int64(tensor.EncodedSize(3)); got != want {
		t.Errorf("bytesPut = %d, want %d", got, want)
	}
	if spans := tr.snapshot(); len(spans) != 3 || spans[1].Name != spanStorePut || spans[2].Name != spanStoreGet {
		t.Errorf("spans = %+v, want epoch, put, get", spans)
	}
}

type fakeFS struct{ log callLog }

type fakeAppender struct{ log *callLog }

func (f *fakeFS) MkdirAll(dir string) error { f.log.add("MkdirAll(%s)", dir); return errFake }
func (f *fakeFS) WriteFileAtomic(path string, data []byte) error {
	f.log.add("WriteFileAtomic(%s,%d)", path, len(data))
	return errFake
}
func (f *fakeFS) ReadFile(path string) ([]byte, error) {
	f.log.add("ReadFile(%s)", path)
	return []byte("abc"), errFake
}
func (f *fakeFS) Append(path string) (fsio.Appender, error) {
	f.log.add("Append(%s)", path)
	return &fakeAppender{log: &f.log}, nil
}
func (f *fakeFS) Remove(path string) error { f.log.add("Remove(%s)", path); return errFake }
func (f *fakeFS) ReadDir(dir string) ([]string, error) {
	f.log.add("ReadDir(%s)", dir)
	return []string{"x"}, errFake
}
func (f *fakeFS) Size(path string) (int64, error) { f.log.add("Size(%s)", path); return 33, errFake }

func (a *fakeAppender) Write(p []byte) (int, error) {
	a.log.add("Write(%d)", len(p))
	return len(p), errFake
}
func (a *fakeAppender) Sync() error  { a.log.add("Sync"); return errFake }
func (a *fakeAppender) Close() error { a.log.add("Close"); return errFake }

func TestCountingFSForwards(t *testing.T) {
	inner := &fakeFS{}
	tr := newTracer(&stepClock{})
	fs := &countingFS{inner: inner, tr: tr}
	epoch := tr.beginEpoch(0, 0)

	if !errors.Is(fs.MkdirAll("j"), errFake) {
		t.Error("MkdirAll error not forwarded")
	}
	if !errors.Is(fs.WriteFileAtomic("j/ckpt-worker-03/ckpt-1.bin", make([]byte, 100)), errFake) {
		t.Error("WriteFileAtomic error not forwarded")
	}
	if !errors.Is(fs.WriteFileAtomic("j/state.bin", make([]byte, 10)), errFake) {
		t.Error("WriteFileAtomic error not forwarded")
	}
	if data, err := fs.ReadFile("j/state.bin"); !errors.Is(err, errFake) || string(data) != "abc" {
		t.Errorf("ReadFile returned (%q, %v)", data, err)
	}
	ap, err := fs.Append("j/epoch.wal")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ap.Write(make([]byte, 40)); n != 40 || !errors.Is(err, errFake) {
		t.Errorf("Write returned (%d, %v)", n, err)
	}
	if !errors.Is(ap.Sync(), errFake) || !errors.Is(ap.Close(), errFake) {
		t.Error("Sync/Close errors not forwarded")
	}
	if !errors.Is(fs.Remove("j/x"), errFake) {
		t.Error("Remove error not forwarded")
	}
	if names, err := fs.ReadDir("j"); !errors.Is(err, errFake) || len(names) != 1 {
		t.Errorf("ReadDir returned (%v, %v)", names, err)
	}
	if n, err := fs.Size("j/x"); n != 33 || !errors.Is(err, errFake) {
		t.Errorf("Size returned (%d, %v)", n, err)
	}
	tr.endEpoch(epoch)

	wantLog := callLog{
		"MkdirAll(j)", "WriteFileAtomic(j/ckpt-worker-03/ckpt-1.bin,100)", "WriteFileAtomic(j/state.bin,10)",
		"ReadFile(j/state.bin)", "Append(j/epoch.wal)", "Write(40)", "Sync", "Close",
		"Remove(j/x)", "ReadDir(j)", "Size(j/x)",
	}
	if !reflect.DeepEqual(inner.log, wantLog) {
		t.Errorf("inner saw\n %v, want\n %v", inner.log, wantLog)
	}
	want := fsCounts{BytesWritten: 150, Fsyncs: 3, JournalRecords: 1, JournalBytes: 40, CkptBytes: 100}
	if got := fs.counts(); got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
	var got []string
	for _, s := range tr.snapshot()[1:] {
		got = append(got, s.Name+"/"+s.File)
	}
	wantSpans := []string{
		spanFSWriteAtomic + "/" + fileCheckpoint, spanFSWriteAtomic + "/" + fileState,
		spanFSRead + "/" + fileState, spanFSAppendSync + "/" + fileJournal,
	}
	if !reflect.DeepEqual(got, wantSpans) {
		t.Errorf("spans = %v, want %v", got, wantSpans)
	}
}

func TestSetIfPresent(t *testing.T) {
	type withKnob struct{ MerkleCommit, Other bool }
	type without struct{ Samples int }
	a, b := withKnob{}, without{Samples: 3}
	setIfPresent(&a, "MerkleCommit", true)
	setIfPresent(&b, "MerkleCommit", true) // absent: Merkle is already the only scheme
	if !a.MerkleCommit || a.Other || b.Samples != 3 {
		t.Errorf("setIfPresent left %+v and %+v", a, b)
	}
}
