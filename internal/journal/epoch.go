package journal

import (
	"fmt"

	"rpol/internal/fsio"
)

// Kind is a record body's kind byte, one per durable protocol transition.
type Kind byte

// Record kinds.
const (
	// KindTask — the manager announced epoch E's sub-task to the workers.
	KindTask Kind = 'T'
	// KindCommit — a worker's commitment arrived at the manager.
	KindCommit Kind = 'C'
	// KindVerdict — the manager recorded a submission's verification
	// outcome.
	KindVerdict Kind = 'V'
	// KindSeal — the epoch settled: aggregation done, stats final.
	KindSeal Kind = 'E'
)

func (k Kind) String() string {
	switch k {
	case KindTask:
		return "task"
	case KindCommit:
		return "commit"
	case KindVerdict:
		return "verdict"
	case KindSeal:
		return "seal"
	}
	return fmt.Sprintf("kind(%#02x)", byte(k))
}

// body is a record type: it appends its binary body (header included) to dst.
type body interface {
	AppendBody(dst []byte) []byte
}

// Task records a task announcement.
type Task struct {
	Epoch int
	// GlobalDigest is fsio.Checksum over the announced global model's wire
	// encoding; resume verifies its reconstructed weights against it.
	GlobalDigest uint64
	// Workers is the pool size the task was announced to.
	Workers int
}

// AppendBody appends t's record body to dst.
func (t Task) AppendBody(dst []byte) []byte {
	dst = fsio.AppendBodyHeader(dst, byte(KindTask))
	dst = fsio.AppendInt(dst, int64(t.Epoch))
	dst = fsio.AppendUint64(dst, t.GlobalDigest)
	return fsio.AppendInt(dst, int64(t.Workers))
}

// DecodeTask decodes a KindTask body.
func DecodeTask(body []byte) (Task, error) {
	r := fsio.ReadBody(body, byte(KindTask))
	t := Task{Epoch: r.Int(), GlobalDigest: r.Uint64(), Workers: r.Int()}
	return t, r.Done()
}

// Commit records one worker's received commitment.
type Commit struct {
	Epoch  int
	Worker string
	// Digest is fsio.Checksum over the 32-byte Merkle root.
	Digest uint64
	// Root is the submitted Merkle root.
	Root []byte
	// NumCheckpoints is the committed snapshot count.
	NumCheckpoints int
}

// AppendBody appends c's record body to dst.
func (c Commit) AppendBody(dst []byte) []byte {
	dst = fsio.AppendBodyHeader(dst, byte(KindCommit))
	dst = fsio.AppendInt(dst, int64(c.Epoch))
	dst = fsio.AppendString(dst, c.Worker)
	dst = fsio.AppendUint64(dst, c.Digest)
	dst = fsio.AppendBlob(dst, c.Root)
	return fsio.AppendInt(dst, int64(c.NumCheckpoints))
}

// DecodeCommit decodes a KindCommit body. Root aliases body.
func DecodeCommit(body []byte) (Commit, error) {
	r := fsio.ReadBody(body, byte(KindCommit))
	c := Commit{Epoch: r.Int(), Worker: r.Str(), Digest: r.Uint64(), Root: r.Blob(), NumCheckpoints: r.Int()}
	return c, r.Done()
}

// Verdict records one submission's verification outcome.
type Verdict struct {
	Epoch   int
	Worker  string
	Outcome string
	Reason  string
}

// AppendBody appends v's record body to dst.
func (v Verdict) AppendBody(dst []byte) []byte {
	dst = fsio.AppendBodyHeader(dst, byte(KindVerdict))
	dst = fsio.AppendInt(dst, int64(v.Epoch))
	dst = fsio.AppendString(dst, v.Worker)
	dst = fsio.AppendString(dst, v.Outcome)
	return fsio.AppendString(dst, v.Reason)
}

// DecodeVerdict decodes a KindVerdict body.
func DecodeVerdict(body []byte) (Verdict, error) {
	r := fsio.ReadBody(body, byte(KindVerdict))
	v := Verdict{Epoch: r.Int(), Worker: r.Str(), Outcome: r.Str(), Reason: r.Str()}
	return v, r.Done()
}

// Seal records a settled epoch: the stats the pool reported and the
// resulting global model digest. A resumed run replays sealed epochs from
// these records instead of re-running them.
type Seal struct {
	Epoch           int
	TestAccuracy    float64
	Accepted        int
	Rejected        int
	Absent          int
	Detected        int
	Missed          int
	FalseRejections int
	VerifyCommBytes int64
	ReexecSteps     int
	// GlobalDigest is fsio.Checksum over the post-aggregation global
	// model's wire encoding.
	GlobalDigest uint64
	// AcceptedWorkers lists the IDs whose submissions were accepted, in
	// outcome order; resume replays reward credits from it.
	AcceptedWorkers []string
}

// AppendBody appends s's record body to dst.
func (s Seal) AppendBody(dst []byte) []byte {
	dst = fsio.AppendBodyHeader(dst, byte(KindSeal))
	dst = fsio.AppendInt(dst, int64(s.Epoch))
	dst = fsio.AppendFloat(dst, s.TestAccuracy)
	for _, n := range [...]int{s.Accepted, s.Rejected, s.Absent, s.Detected, s.Missed, s.FalseRejections} {
		dst = fsio.AppendInt(dst, int64(n))
	}
	dst = fsio.AppendInt(dst, s.VerifyCommBytes)
	dst = fsio.AppendInt(dst, int64(s.ReexecSteps))
	dst = fsio.AppendUint64(dst, s.GlobalDigest)
	dst = fsio.AppendLen(dst, len(s.AcceptedWorkers))
	for _, id := range s.AcceptedWorkers {
		dst = fsio.AppendString(dst, id)
	}
	return dst
}

// DecodeSeal decodes a KindSeal body.
func DecodeSeal(body []byte) (Seal, error) {
	r := fsio.ReadBody(body, byte(KindSeal))
	s := Seal{
		Epoch:           r.Int(),
		TestAccuracy:    r.Float(),
		Accepted:        r.Int(),
		Rejected:        r.Int(),
		Absent:          r.Int(),
		Detected:        r.Int(),
		Missed:          r.Int(),
		FalseRejections: r.Int(),
		VerifyCommBytes: r.Int64(),
		ReexecSteps:     r.Int(),
		GlobalDigest:    r.Uint64(),
	}
	if n := r.Len(1); n > 0 {
		s.AcceptedWorkers = make([]string, n)
		for i := range s.AcceptedWorkers {
			s.AcceptedWorkers[i] = r.Str()
		}
	}
	return s, r.Done()
}

// LogTask appends a task-announced record.
func (j *Journal) LogTask(t Task) error { return j.log(KindTask, t) }

// LogCommit appends a commitment-received record.
func (j *Journal) LogCommit(c Commit) error { return j.log(KindCommit, c) }

// LogVerdict appends a verdict record.
func (j *Journal) LogVerdict(v Verdict) error { return j.log(KindVerdict, v) }

// LogSeal appends an epoch-sealed record.
func (j *Journal) LogSeal(s Seal) error { return j.log(KindSeal, s) }

// State is the protocol position a journal's intact records reconstruct:
// the sealed epoch history plus whatever the in-flight epoch had durably
// progressed to when the process died.
type State struct {
	// Sealed is the settled epoch history, in order.
	Sealed []Seal
	// InFlight is the epoch a task was announced for but never sealed, or
	// -1. A crashed epoch may appear as several task records (one per
	// crashed attempt); the latest attempt wins.
	InFlight int
	// Task is the in-flight epoch's announcement (nil when InFlight < 0).
	Task *Task
	// Commits and Verdicts are the in-flight epoch's durable transitions,
	// in journal order. A challenge is not recorded: it is re-derived from
	// its commitment.
	Commits  []Commit
	Verdicts []Verdict
}

// ClearInFlight drops the in-flight epoch's partial transitions (used when
// a state file proves the epoch actually sealed).
func (s *State) ClearInFlight() {
	s.InFlight = -1
	s.Task = nil
	s.Commits, s.Verdicts = nil, nil
}

// Reconstruct folds a journal's intact records into a State. It fails on
// structurally impossible histories (an epoch sealed twice with a gap) —
// those indicate a bug or tampering, not a crash, and resuming from them
// would diverge silently — and with fsio.ErrVersion on a body that is not
// one of this build's kinds or does not decode as its kind.
func Reconstruct(recs []Record) (*State, error) {
	st := &State{InFlight: -1}
	maxSealed := -1
	for i, rec := range recs {
		fail := func(err error) (*State, error) {
			return nil, fmt.Errorf("journal record %d (%s): %w", i, rec.Kind(), err)
		}
		switch rec.Kind() {
		case KindTask:
			t, err := DecodeTask(rec.Body)
			if err != nil {
				return fail(err)
			}
			if t.Epoch <= maxSealed {
				continue // stale announcement of an already-sealed epoch
			}
			if t.Epoch != maxSealed+1 {
				return nil, fmt.Errorf("journal record %d: task for epoch %d after sealing %d", i, t.Epoch, maxSealed)
			}
			// A repeated task for the in-flight epoch is a crashed attempt
			// being retried: the latest attempt's transitions supersede.
			st.ClearInFlight()
			st.InFlight = t.Epoch
			st.Task = &t
		case KindCommit:
			c, err := DecodeCommit(rec.Body)
			if err != nil {
				return fail(err)
			}
			if c.Epoch == st.InFlight {
				st.Commits = append(st.Commits, c)
			}
		case KindVerdict:
			v, err := DecodeVerdict(rec.Body)
			if err != nil {
				return fail(err)
			}
			if v.Epoch == st.InFlight {
				st.Verdicts = append(st.Verdicts, v)
			}
		case KindSeal:
			s, err := DecodeSeal(rec.Body)
			if err != nil {
				return fail(err)
			}
			if s.Epoch <= maxSealed {
				continue // duplicate seal from a crash-reappend race
			}
			if s.Epoch != maxSealed+1 {
				return nil, fmt.Errorf("journal record %d: seal for epoch %d after sealing %d", i, s.Epoch, maxSealed)
			}
			st.Sealed = append(st.Sealed, s)
			maxSealed = s.Epoch
			if st.InFlight == s.Epoch {
				st.ClearInFlight()
			}
		default:
			return fail(fmt.Errorf("unknown record kind: %w", fsio.ErrVersion))
		}
	}
	return st, nil
}
