package main

import (
	"path/filepath"
	"strings"
	"sync"

	"rpol/internal/checkpoint"
	"rpol/internal/fsio"
	"rpol/internal/gpu"
	proto "rpol/internal/rpol"
	"rpol/internal/tensor"
)

// tracedWorker times every call through an rpol.Worker and forwards it
// unchanged. The same type serves both ends of the hub: wrapped around a
// RemoteWorker it records the manager-side call and registers it as the
// caller; wrapped around the worker a WorkerServer hosts it records the
// worker-side span under that caller.
type tracedWorker struct {
	inner  proto.Worker
	tr     *tracer
	remote bool
}

var _ proto.Worker = (*tracedWorker)(nil)

func (w *tracedWorker) ID() string              { return w.inner.ID() }
func (w *tracedWorker) GPUProfile() gpu.Profile { return w.inner.GPUProfile() }

// call opens the span for one forwarded call and returns the function that
// closes it.
func (w *tracedWorker) call(remoteName, workerName string) func() {
	id := w.inner.ID()
	if w.remote {
		s := w.tr.begin(remoteName, w.tr.epochSpan(), id, "")
		w.tr.register(w.tr.callers, id, s)
		return func() {
			w.tr.unregister(w.tr.callers, id)
			w.tr.end(s)
		}
	}
	s := w.tr.begin(workerName, w.tr.lookup(w.tr.callers, id, w.tr.epochSpan()), id, "")
	w.tr.register(w.tr.serving, id, s)
	return func() {
		w.tr.unregister(w.tr.serving, id)
		w.tr.end(s)
	}
}

func (w *tracedWorker) RunEpoch(p proto.TaskParams) (*proto.EpochResult, error) {
	defer w.call(spanRemoteRun, spanWorkerRun)()
	return w.inner.RunEpoch(p)
}

func (w *tracedWorker) OpenCheckpoint(idx int) (tensor.Vector, error) {
	defer w.call(spanRemoteOpen, spanWorkerOpen)()
	return w.inner.OpenCheckpoint(idx)
}

func (w *tracedWorker) OpenProof(idx int) (proto.LeafProof, error) {
	defer w.call(spanRemoteProof, spanWorkerProof)()
	return w.inner.OpenProof(idx)
}

// tracedStore times Put and Get on one worker's checkpoint store, counts the
// encoded bytes put, and forwards every method unchanged.
type tracedStore struct {
	inner  checkpoint.Store
	tr     *tracer
	worker string

	mu       sync.Mutex
	putBytes int64
}

var _ checkpoint.Store = (*tracedStore)(nil)

func (s *tracedStore) parent() int {
	return s.tr.lookup(s.tr.serving, s.worker, s.tr.epochSpan())
}

func (s *tracedStore) Put(idx int, w tensor.Vector) error {
	id := s.tr.begin(spanStorePut, s.parent(), s.worker, "")
	err := s.inner.Put(idx, w)
	s.tr.end(id)
	s.mu.Lock()
	s.putBytes += int64(tensor.EncodedSize(len(w)))
	s.mu.Unlock()
	return err
}

func (s *tracedStore) Get(idx int) (tensor.Vector, error) {
	id := s.tr.begin(spanStoreGet, s.parent(), s.worker, "")
	defer s.tr.end(id)
	return s.inner.Get(idx)
}

func (s *tracedStore) Len() int     { return s.inner.Len() }
func (s *tracedStore) Bytes() int64 { return s.inner.Bytes() }
func (s *tracedStore) Clear() error { return s.inner.Clear() }

func (s *tracedStore) bytesPut() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putBytes
}

// File classes of the pool's durability layer, told apart by name: the epoch
// journal, the per-worker checkpoint stores, and the pool's state snapshot.
const (
	fileJournal    = "journal"
	fileCheckpoint = "checkpoint"
	fileState      = "state"
)

func classifyFile(path string) string {
	switch {
	case strings.HasSuffix(path, ".wal"):
		return fileJournal
	case strings.HasPrefix(filepath.Base(filepath.Dir(path)), "ckpt-"):
		return fileCheckpoint
	default:
		return fileState
	}
}

// fsCounts is what a countingFS has seen so far.
type fsCounts struct {
	BytesWritten   int64 // every byte handed to WriteFileAtomic or an Appender
	Fsyncs         int64 // one per atomic write's file sync, one per Appender.Sync
	JournalRecords int64 // appends to the journal
	JournalBytes   int64
	CkptBytes      int64 // atomic writes into checkpoint stores
}

// minus returns what was counted since the earlier reading o.
func (c fsCounts) minus(o fsCounts) fsCounts {
	return fsCounts{
		BytesWritten:   c.BytesWritten - o.BytesWritten,
		Fsyncs:         c.Fsyncs - o.Fsyncs,
		JournalRecords: c.JournalRecords - o.JournalRecords,
		JournalBytes:   c.JournalBytes - o.JournalBytes,
		CkptBytes:      c.CkptBytes - o.CkptBytes,
	}
}

// countingFS counts the bytes and syncs that pass through an fsio.FS and,
// when a tracer is set, records a span around each durable operation. Every
// method forwards unchanged.
type countingFS struct {
	inner fsio.FS
	tr    *tracer

	mu sync.Mutex
	n  fsCounts
}

var _ fsio.FS = (*countingFS)(nil)

func (f *countingFS) counts() fsCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

func (f *countingFS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

func (f *countingFS) WriteFileAtomic(path string, data []byte) error {
	class := classifyFile(path)
	id := f.tr.begin(spanFSWriteAtomic, f.tr.epochSpan(), "", class)
	err := f.inner.WriteFileAtomic(path, data)
	f.tr.end(id)
	f.mu.Lock()
	f.n.BytesWritten += int64(len(data))
	f.n.Fsyncs++
	if class == fileCheckpoint {
		f.n.CkptBytes += int64(len(data))
	}
	f.mu.Unlock()
	return err
}

func (f *countingFS) ReadFile(path string) ([]byte, error) {
	id := f.tr.begin(spanFSRead, f.tr.epochSpan(), "", classifyFile(path))
	defer f.tr.end(id)
	return f.inner.ReadFile(path)
}

func (f *countingFS) Append(path string) (fsio.Appender, error) {
	ap, err := f.inner.Append(path)
	if err != nil {
		return nil, err
	}
	return &countingAppender{inner: ap, fs: f, class: classifyFile(path)}, nil
}

func (f *countingFS) Remove(path string) error             { return f.inner.Remove(path) }
func (f *countingFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }
func (f *countingFS) Size(path string) (int64, error)      { return f.inner.Size(path) }

type countingAppender struct {
	inner fsio.Appender
	fs    *countingFS
	class string
}

func (a *countingAppender) Write(data []byte) (int, error) {
	n, err := a.inner.Write(data)
	a.fs.mu.Lock()
	a.fs.n.BytesWritten += int64(n)
	if a.class == fileJournal {
		a.fs.n.JournalRecords++
		a.fs.n.JournalBytes += int64(n)
	}
	a.fs.mu.Unlock()
	return n, err
}

func (a *countingAppender) Sync() error {
	id := a.fs.tr.begin(spanFSAppendSync, a.fs.tr.epochSpan(), "", a.class)
	err := a.inner.Sync()
	a.fs.tr.end(id)
	a.fs.mu.Lock()
	a.fs.n.Fsyncs++
	a.fs.mu.Unlock()
	return err
}

func (a *countingAppender) Close() error { return a.inner.Close() }
