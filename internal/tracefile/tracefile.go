// Package tracefile defines a portable on-disk format for worker training
// traces, so that a proof of learning can be recorded by one process and
// verified by another (the cmd/rpolverify workflow). A trace file carries
// everything the verification needs to be self-contained: the task identity
// and seed (from which the verifier reconstructs the architecture and the
// shard deterministically), the epoch parameters, and the raw checkpoint
// snapshots. The task itself — θ_t included — is the verifier's to derive;
// the recorded parameters are only held to it (CheckTask).
package tracefile

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"rpol/internal/fsio"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// FormatVersion identifies the trace-file schema.
const FormatVersion = 1

// Params mirrors rpol.TaskParams in a serialization-friendly shape.
type Params struct {
	Epoch           int     `json:"epoch"`
	Steps           int     `json:"steps"`
	CheckpointEvery int     `json:"checkpointEvery"`
	BatchSize       int     `json:"batchSize"`
	LR              float64 `json:"lr"`
	Optimizer       string  `json:"optimizer"`
	Nonce           uint64  `json:"nonce"`
}

// File is the on-disk trace.
type File struct {
	Version  int    `json:"version"`
	Task     string `json:"task"`
	Seed     int64  `json:"seed"`
	WorkerID string `json:"workerId"`
	GPU      string `json:"gpu"`
	Params   Params `json:"params"`
	// Checkpoints are the base64-encoded binary snapshots (tensor.Encode).
	Checkpoints []string `json:"checkpoints"`
	// StepsAt are the training steps of each snapshot.
	StepsAt []int `json:"stepsAt"`
}

// Errors returned by trace-file operations.
var (
	ErrBadVersion = errors.New("tracefile: unsupported version")
	ErrCorrupt    = errors.New("tracefile: corrupt trace")
	// ErrOtherTask refuses a file recorded under other epoch parameters
	// than the task the verifier derives.
	ErrOtherTask = errors.New("tracefile: trace recorded for another task")
)

// paramsOf is p's serialized shape.
func paramsOf(p rpol.TaskParams) Params {
	return Params{
		Epoch:           p.Epoch,
		Steps:           p.Steps,
		CheckpointEvery: p.CheckpointEvery,
		BatchSize:       p.Hyper.BatchSize,
		LR:              p.Hyper.LR,
		Optimizer:       p.Hyper.Optimizer,
		Nonce:           uint64(p.Nonce),
	}
}

// FromTrace builds a File from a recorded trace.
func FromTrace(task string, seed int64, workerID, gpuName string, p rpol.TaskParams, trace *rpol.Trace) (*File, error) {
	if trace == nil || len(trace.Checkpoints) == 0 {
		return nil, fmt.Errorf("empty trace: %w", ErrCorrupt)
	}
	if len(trace.Checkpoints) != len(trace.Steps) {
		return nil, fmt.Errorf("checkpoints %d vs steps %d: %w",
			len(trace.Checkpoints), len(trace.Steps), ErrCorrupt)
	}
	f := &File{
		Version:  FormatVersion,
		Task:     task,
		Seed:     seed,
		WorkerID: workerID,
		GPU:      gpuName,
		Params:   paramsOf(p),
		StepsAt:  append([]int(nil), trace.Steps...),
	}
	var buf []byte
	for _, w := range trace.Checkpoints {
		buf = w.AppendEncode(buf[:0])
		f.Checkpoints = append(f.Checkpoints, base64.StdEncoding.EncodeToString(buf))
	}
	return f, nil
}

// CheckTask refuses, with ErrOtherTask, a file whose recorded epoch,
// interval, step count, hyper-parameters, nonce or checkpoint steps are not
// p's: checkpoint i is taken at step min(i·CheckpointEvery, Steps), one for
// each of p.NumCheckpoints(). The file carries no θ_t: the verifier binds
// checkpoint 0 to p.Global itself.
func (f *File) CheckTask(p rpol.TaskParams) error {
	if f.Params != paramsOf(p) {
		return fmt.Errorf("recorded %+v, task %+v: %w", f.Params, paramsOf(p), ErrOtherTask)
	}
	if len(f.StepsAt) != p.NumCheckpoints() {
		return fmt.Errorf("%d checkpoint steps recorded, the task takes %d: %w", len(f.StepsAt), p.NumCheckpoints(), ErrOtherTask)
	}
	for i, step := range f.StepsAt {
		if want := min(i*p.CheckpointEvery, p.Steps); step != want {
			return fmt.Errorf("checkpoint %d recorded at step %d, the task takes it at %d: %w", i, step, want, ErrOtherTask)
		}
	}
	return nil
}

// Trace decodes the checkpoint snapshots.
func (f *File) Trace() (*rpol.Trace, error) {
	if f.Version != FormatVersion {
		return nil, fmt.Errorf("version %d: %w", f.Version, ErrBadVersion)
	}
	if len(f.Checkpoints) == 0 || len(f.Checkpoints) != len(f.StepsAt) {
		return nil, fmt.Errorf("checkpoints %d vs steps %d: %w",
			len(f.Checkpoints), len(f.StepsAt), ErrCorrupt)
	}
	trace := &rpol.Trace{Steps: append([]int(nil), f.StepsAt...)}
	for i, enc := range f.Checkpoints {
		raw, err := base64.StdEncoding.DecodeString(enc)
		if err != nil {
			return nil, fmt.Errorf("checkpoint %d: %w", i, ErrCorrupt)
		}
		w, err := tensor.DecodeVector(raw)
		if err != nil {
			return nil, fmt.Errorf("checkpoint %d: %w", i, err)
		}
		trace.Checkpoints = append(trace.Checkpoints, w)
	}
	return trace, nil
}

// Write serializes the trace file to path as a checksummed fsio frame,
// atomically: a crash mid-write leaves the previous trace (or nothing)
// rather than a torn file a verifier would choke on.
func (f *File) Write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("tracefile write: %w", err)
	}
	if err := fsio.WriteFileAtomic(path, fsio.EncodeFile(data)); err != nil {
		return fmt.Errorf("tracefile write: %w", err)
	}
	return nil
}

// Read parses a trace file from path. Checksum failures and unframed files
// surface as ErrCorrupt.
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile read: %w", err)
	}
	payload, err := fsio.DecodeFile(data)
	if err != nil {
		return nil, fmt.Errorf("tracefile read: %v: %w", err, ErrCorrupt)
	}
	var f File
	if err := json.Unmarshal(payload, &f); err != nil {
		return nil, fmt.Errorf("tracefile parse: %w", err)
	}
	if f.Version != FormatVersion {
		return nil, fmt.Errorf("version %d: %w", f.Version, ErrBadVersion)
	}
	return &f, nil
}
