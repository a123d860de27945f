package pool

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rpol/internal/fsio"
	"rpol/internal/journal"
	"rpol/internal/obs"
	"rpol/internal/rpol"
)

// durableLog is one totally ordered record of what a journaled pool did to
// its filesystem and where its protocol spans opened and closed. A journaled
// pool runs its epoch on one goroutine, so append order is program order.
type durableLog struct {
	mu     sync.Mutex
	root   string
	events []durableEvent
	spans  map[int64]durableEvent // open spans by id, to label their ends
}

// durableEvent is one entry: op is "write", "sync" or "atomic" on file (a
// path relative to the journal directory), or "start"/"end" of span name for
// worker. kinds lists the record kinds of a journal write; sum fingerprints
// the bytes of a write.
type durableEvent struct {
	op, file, name, worker, kinds string
	sum                           uint64
}

func (l *durableLog) add(ev durableEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

// Write receives the tracer's JSON lines, one span event per call.
func (l *durableLog) Write(line []byte) (int, error) {
	var ev obs.Event
	if err := json.Unmarshal(line, &ev); err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if ev.Ev == "start" {
		worker, _ := ev.Attrs["worker"].(string)
		l.spans[ev.ID] = durableEvent{name: ev.Name, worker: worker}
	}
	out := l.spans[ev.ID]
	out.op = ev.Ev
	l.events = append(l.events, out)
	return len(line), nil
}

// recordingFS forwards to the real filesystem and logs every durable
// operation.
type recordingFS struct {
	fsio.FS
	log *durableLog
}

func (f recordingFS) rel(path string) string {
	rel, err := filepath.Rel(f.log.root, path)
	if err != nil {
		return path
	}
	return filepath.ToSlash(rel)
}

func (f recordingFS) WriteFileAtomic(path string, data []byte) error {
	f.log.add(durableEvent{op: "atomic", file: f.rel(path), sum: fsio.Checksum(data)})
	return f.FS.WriteFileAtomic(path, data)
}

func (f recordingFS) Append(path string) (fsio.Appender, error) {
	ap, err := f.FS.Append(path)
	if err != nil {
		return nil, err
	}
	return &recordingAppender{Appender: ap, file: f.rel(path), log: f.log}, nil
}

type recordingAppender struct {
	fsio.Appender
	file string
	log  *durableLog
}

func (a *recordingAppender) Write(data []byte) (int, error) {
	ev := durableEvent{op: "write", file: a.file, sum: fsio.Checksum(data)}
	if strings.HasSuffix(a.file, ".wal") {
		recs, _, _ := journal.Replay(data)
		kinds := make([]string, len(recs))
		for i, r := range recs {
			kinds[i] = r.Kind().String()
		}
		ev.kinds = strings.Join(kinds, ",")
	}
	a.log.add(ev)
	return a.Appender.Write(data)
}

func (a *recordingAppender) Sync() error {
	a.log.add(durableEvent{op: "sync", file: a.file})
	return a.Appender.Sync()
}

// TestDurableEpochSyncsOncePerPhase pins the group-committed epoch's whole
// durable schedule: which barrier guards which protocol step, and that there
// are no others — one Sync per honest worker, four on the manager's journal
// and one atomic state write per epoch, no checkpoint written twice.
func TestDurableEpochSyncsOncePerPhase(t *testing.T) {
	const epochs = 3
	dir := t.TempDir()
	log := &durableLog{root: dir, spans: make(map[int64]durableEvent)}
	cfg := Config{
		TaskName:        "resnet18-cifar10",
		Scheme:          rpol.SchemeV2,
		NumWorkers:      4,
		Adv1Fraction:    0.25,
		StepsPerEpoch:   8,
		CheckpointEvery: 2,
		Samples:         2,
		Seed:            31,
		Journal:         dir,
		FS:              recordingFS{fsio.OS, log},
		Obs:             obs.NewObserver(obs.NewRegistry(), obs.NewTracer(log, nil)),
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var honest []string
	for id, role := range p.Roles() {
		if role == RoleHonest {
			honest = append(honest, id)
		}
	}
	if len(honest) != 3 {
		t.Fatalf("%d honest workers, want 3", len(honest))
	}
	setup := len(log.events)
	if _, err := p.RunEpochs(epochs); err != nil {
		t.Fatal(err)
	}
	const checkpoints = 8/2 + 1

	// Cut the log into epochs at each manager.epoch start.
	var perEpoch [][]durableEvent
	for _, ev := range log.events[setup:] {
		if ev.op == "start" && ev.name == "manager.epoch" {
			perEpoch = append(perEpoch, nil)
		}
		if len(perEpoch) == 0 {
			t.Fatalf("event %+v before the first epoch", ev)
		}
		perEpoch[len(perEpoch)-1] = append(perEpoch[len(perEpoch)-1], ev)
	}
	if len(perEpoch) != epochs {
		t.Fatalf("log holds %d epochs, want %d", len(perEpoch), epochs)
	}

	for e, events := range perEpoch {
		// find returns the positions of the events match accepts.
		find := func(match func(durableEvent) bool) []int {
			var at []int
			for i, ev := range events {
				if match(ev) {
					at = append(at, i)
				}
			}
			return at
		}
		one := func(what string, match func(durableEvent) bool) int {
			t.Helper()
			at := find(match)
			if len(at) != 1 {
				t.Fatalf("epoch %d: %d × %s, want exactly one", e, len(at), what)
			}
			return at[0]
		}
		span := func(op, name, worker string) func(durableEvent) bool {
			return func(ev durableEvent) bool {
				return ev.op == op && ev.name == name && (worker == "" || ev.worker == worker)
			}
		}
		journalWrite := func(want journal.Kind) func(durableEvent) bool {
			return func(ev durableEvent) bool {
				if ev.op != "write" || ev.file != journalFile {
					return false
				}
				for _, k := range strings.Split(ev.kinds, ",") {
					if k != want.String() {
						return false
					}
				}
				return true
			}
		}
		// syncAfter is the journal barrier that follows the write at i: the
		// very next journal event.
		syncAfter := func(i int) int {
			t.Helper()
			for j := i + 1; j < len(events); j++ {
				if events[j].file == journalFile {
					if events[j].op != "sync" {
						t.Fatalf("epoch %d: journal %s follows the write at %d, want its sync", e, events[j].op, i)
					}
					return j
				}
			}
			t.Fatalf("epoch %d: journal write at %d is never synced", e, i)
			return -1
		}

		// The exact bill.
		syncs := find(func(ev durableEvent) bool { return ev.op == "sync" })
		atomics := find(func(ev durableEvent) bool { return ev.op == "atomic" })
		if len(syncs) != len(honest)+4 || len(atomics) != 1 {
			t.Fatalf("epoch %d: %d syncs and %d atomic writes, want %d (one per honest worker + four on the journal) and 1",
				e, len(syncs), len(atomics), len(honest)+4)
		}
		if n := len(find(func(ev durableEvent) bool { return ev.op == "sync" && ev.file == journalFile })); n != 4 {
			t.Fatalf("epoch %d: %d journal syncs, want 4", e, n)
		}
		seen := make(map[string]bool)
		for _, i := range find(func(ev durableEvent) bool { return ev.op == "write" && ev.file != journalFile }) {
			key := fmt.Sprintf("%s/%x", events[i].file, events[i].sum)
			if seen[key] {
				t.Errorf("epoch %d: %s received the same bytes twice", e, events[i].file)
			}
			seen[key] = true
		}

		// task → first worker.
		taskSync := syncAfter(one("task write", journalWrite(journal.KindTask)))
		if first := find(span("start", "worker.train", ""))[0]; taskSync > first {
			t.Errorf("epoch %d: the task record is synced at %d, after the first worker started at %d", e, taskSync, first)
		}

		// each worker: header + one frame per later checkpoint, one barrier
		// after the last of them and before its RunEpoch returns (the
		// worker.commit span closes on the way out).
		for _, w := range honest {
			file := "ckpt-" + w + "/segment.bin"
			writes := find(func(ev durableEvent) bool { return ev.op == "write" && ev.file == file })
			if len(writes) != checkpoints {
				t.Errorf("epoch %d: %d writes to %s, want a header and %d checkpoints", e, len(writes), file, checkpoints-1)
			}
			sync := one("sync of "+file, func(ev durableEvent) bool { return ev.op == "sync" && ev.file == file })
			returned := one("worker.commit end of "+w, span("end", "worker.commit", w))
			if sync < writes[len(writes)-1] || sync > returned {
				t.Errorf("epoch %d: %s synced at %d, want after its last write at %d and before RunEpoch returns at %d",
					e, file, sync, writes[len(writes)-1], returned)
			}
		}

		// commits → first challenge.
		commitSync := syncAfter(one("commit write", journalWrite(journal.KindCommit)))
		verifies := find(span("start", "verify.submission", ""))
		if len(verifies) != cfg.NumWorkers || commitSync > verifies[0] {
			t.Errorf("epoch %d: commitments synced at %d, first of %d verifications at %v", e, commitSync, len(verifies), verifies)
		}
		if last := find(span("end", "worker.commit", "")); commitSync < last[len(last)-1] {
			t.Errorf("epoch %d: commitments synced at %d, before the last worker answered at %d", e, commitSync, last[len(last)-1])
		}

		// verdicts → aggregation → state.bin → seal.
		verdictSync := syncAfter(one("verdict write", journalWrite(journal.KindVerdict)))
		aggregate := one("manager.aggregate start", span("start", "manager.aggregate", ""))
		done := find(span("end", "verify.submission", ""))
		if verdictSync < done[len(done)-1] || verdictSync > aggregate {
			t.Errorf("epoch %d: verdicts synced at %d, want after the last verification at %d and before aggregation at %d",
				e, verdictSync, done[len(done)-1], aggregate)
		}
		sealWrite := one("seal write", journalWrite(journal.KindSeal))
		syncAfter(sealWrite)
		if events[atomics[0]].file != stateFile || atomics[0] < aggregate || atomics[0] > sealWrite {
			t.Errorf("epoch %d: %s written at %d, want between aggregation at %d and the seal at %d",
				e, events[atomics[0]].file, atomics[0], aggregate, sealWrite)
		}
	}
	if t.Failed() {
		for e, events := range perEpoch {
			for i, ev := range events {
				t.Logf("epoch %d [%3d] %+v", e, i, ev)
			}
		}
	}
}
