package journal

import (
	"encoding/json"
	"fmt"
)

// Record kinds, one per durable protocol transition.
const (
	// KindTask — the manager announced epoch E's sub-task to the workers.
	KindTask = "task"
	// KindCommit — a worker's commitment arrived at the manager.
	KindCommit = "commit"
	// KindSamples — the manager drew a submission's sample indices.
	KindSamples = "samples"
	// KindVerdict — the manager recorded a submission's verification
	// outcome.
	KindVerdict = "verdict"
	// KindSeal — the epoch settled: aggregation done, stats final.
	KindSeal = "seal"
)

// Task records a task announcement.
type Task struct {
	Epoch int `json:"epoch"`
	// GlobalDigest is fsio.Checksum over the announced global model's wire
	// encoding; resume verifies its reconstructed weights against it.
	GlobalDigest uint64 `json:"globalDigest"`
	// Workers is the pool size the task was announced to.
	Workers int `json:"workers"`
}

// Commit records one worker's received commitment.
type Commit struct {
	Epoch  int    `json:"epoch"`
	Worker string `json:"worker"`
	// Digest is fsio.Checksum over the 32-byte Merkle root. (Journals of
	// builds that committed with an inline hash list hold its checksum, and
	// no Root.)
	Digest uint64 `json:"digest"`
	// Root is the submitted Merkle root.
	Root []byte `json:"root,omitempty"`
	// NumCheckpoints is the committed snapshot count.
	NumCheckpoints int `json:"numCheckpoints"`
}

// Samples records the sample indices drawn for one submission.
type Samples struct {
	Epoch   int    `json:"epoch"`
	Worker  string `json:"worker"`
	Indices []int  `json:"indices"`
}

// Verdict records one submission's verification outcome.
type Verdict struct {
	Epoch   int    `json:"epoch"`
	Worker  string `json:"worker"`
	Outcome string `json:"outcome"`
	Reason  string `json:"reason,omitempty"`
}

// Seal records a settled epoch: the stats the pool reported and the
// resulting global model digest. A resumed run replays sealed epochs from
// these records instead of re-running them.
type Seal struct {
	Epoch           int     `json:"epoch"`
	TestAccuracy    float64 `json:"testAccuracy"`
	Accepted        int     `json:"accepted"`
	Rejected        int     `json:"rejected"`
	Absent          int     `json:"absent"`
	Detected        int     `json:"detected"`
	Missed          int     `json:"missed"`
	FalseRejections int     `json:"falseRejections"`
	VerifyCommBytes int64   `json:"verifyCommBytes"`
	ReexecSteps     int     `json:"reexecSteps"`
	// GlobalDigest is fsio.Checksum over the post-aggregation global
	// model's wire encoding.
	GlobalDigest uint64 `json:"globalDigest"`
	// AcceptedWorkers lists the IDs whose submissions were accepted, in
	// outcome order; resume replays reward credits from it.
	AcceptedWorkers []string `json:"acceptedWorkers,omitempty"`
}

// logJSON marshals v and appends it under kind (pending until Sync).
func (j *Journal) logJSON(kind string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal %s: %w", kind, err)
	}
	if _, err := j.Append(kind, data); err != nil {
		return fmt.Errorf("journal %s: %w", kind, err)
	}
	return nil
}

// LogTask appends a task-announced record.
func (j *Journal) LogTask(t Task) error { return j.logJSON(KindTask, t) }

// LogCommit appends a commitment-received record.
func (j *Journal) LogCommit(c Commit) error { return j.logJSON(KindCommit, c) }

// LogSamples appends a samples-drawn record.
func (j *Journal) LogSamples(s Samples) error { return j.logJSON(KindSamples, s) }

// LogVerdict appends a verdict record.
func (j *Journal) LogVerdict(v Verdict) error { return j.logJSON(KindVerdict, v) }

// LogSeal appends an epoch-sealed record.
func (j *Journal) LogSeal(s Seal) error { return j.logJSON(KindSeal, s) }

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
	// Commits, Samples, Verdicts are the in-flight epoch's durable
	// transitions, in journal order.
	Commits  []Commit
	Samples  []Samples
	Verdicts []Verdict
}

// ClearInFlight drops the in-flight epoch's partial transitions (used when
// a state file proves the epoch actually sealed).
func (s *State) ClearInFlight() {
	s.InFlight = -1
	s.Task = nil
	s.Commits, s.Samples, s.Verdicts = nil, nil, nil
}

// NextEpoch returns the epoch a resumed run should execute next: the
// in-flight epoch when one exists, else the first unsealed epoch.
func (s *State) NextEpoch() int {
	if s.InFlight >= 0 {
		return s.InFlight
	}
	return len(s.Sealed)
}

// Reconstruct folds a journal's intact records into a State. It fails on
// structurally impossible histories (an epoch sealed twice with a gap, a
// record body that does not parse) — those indicate a bug or tampering, not
// a crash, and resuming from them would diverge silently.
func Reconstruct(recs []Record) (*State, error) {
	st := &State{InFlight: -1}
	maxSealed := -1
	for i, rec := range recs {
		switch rec.Kind {
		case KindTask:
			var t Task
			if err := json.Unmarshal(rec.Data, &t); err != nil {
				return nil, fmt.Errorf("journal record %d (%s): %w", i, rec.Kind, err)
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
			var c Commit
			if err := json.Unmarshal(rec.Data, &c); err != nil {
				return nil, fmt.Errorf("journal record %d (%s): %w", i, rec.Kind, err)
			}
			if c.Epoch == st.InFlight {
				st.Commits = append(st.Commits, c)
			}
		case KindSamples:
			var s Samples
			if err := json.Unmarshal(rec.Data, &s); err != nil {
				return nil, fmt.Errorf("journal record %d (%s): %w", i, rec.Kind, err)
			}
			if s.Epoch == st.InFlight {
				st.Samples = append(st.Samples, s)
			}
		case KindVerdict:
			var v Verdict
			if err := json.Unmarshal(rec.Data, &v); err != nil {
				return nil, fmt.Errorf("journal record %d (%s): %w", i, rec.Kind, err)
			}
			if v.Epoch == st.InFlight {
				st.Verdicts = append(st.Verdicts, v)
			}
		case KindSeal:
			var s Seal
			if err := json.Unmarshal(rec.Data, &s); err != nil {
				return nil, fmt.Errorf("journal record %d (%s): %w", i, rec.Kind, err)
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
			// Unknown kinds are skipped, not fatal: a newer writer may add
			// record types an older reader can ignore, and an older one
			// (the per-checkpoint "ckpt" records workers once wrote here)
			// may have left some this reader no longer needs.
		}
	}
	return st, nil
}
