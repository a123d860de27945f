package rpol_test

// Guards the committed benchmark records (BENCH_pr3.json, BENCH_pr8.json,
// BENCH_pr9.json, and the end-to-end records listed in e2eGates): the files
// are the evidence trail for the performance PRs' claims, so they
// must stay parseable and structurally sound. The tests use only the
// standard library and fail on a malformed file — missing fields, unknown
// keys, non-positive measurements, or entries whose names no longer look
// like Go benchmarks. BENCH_pr8.json additionally carries a comparator
// gate: the recorded batched TrainStep must hold its claimed >=2x margin
// over the serial path, so a re-record that loses the speedup fails CI
// instead of silently weakening the claim.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchMeasure is one benchmark measurement triple.
type benchMeasure struct {
	NsOp     int64 `json:"ns_op"`
	BOp      int64 `json:"b_op"`
	AllocsOp int64 `json:"allocs_op"`
}

// benchEntry pairs a benchmark with its before/after measurements; Before
// is null for benchmarks introduced by the PR itself.
type benchEntry struct {
	Name   string        `json:"name"`
	Before *benchMeasure `json:"before"`
	After  *benchMeasure `json:"after"`
}

// commEntry is one protocol-level byte measurement: the same seeded run's
// communication bill under the legacy inline hash list and under the
// streaming Merkle commitment.
type commEntry struct {
	Name        string `json:"name"`
	Leaves      int    `json:"leaves"`
	Samples     int    `json:"samples"`
	ProofPulls  int    `json:"proof_pulls"`
	ProofSize   int    `json:"proof_size"`
	DigestSize  int    `json:"digest_size"`
	LegacyBytes int64  `json:"legacy_bytes"`
	MerkleBytes int64  `json:"merkle_bytes"`
}

// benchRecord is the committed benchmark document.
type benchRecord struct {
	PR        int               `json:"pr"`
	Benchtime string            `json:"benchtime"`
	Units     map[string]string `json:"units"`
	Host      struct {
		GOOS   string `json:"goos"`
		GOARCH string `json:"goarch"`
		CPU    string `json:"cpu"`
		NumCPU int    `json:"num_cpu"`
		Note   string `json:"note"`
	} `json:"host"`
	Benchmarks []benchEntry `json:"benchmarks"`
	// Comm carries protocol byte measurements (BENCH_pr9 and later);
	// absent from earlier records.
	Comm []commEntry `json:"comm,omitempty"`
}

// loadBenchRecord parses and structurally validates one committed record,
// returning the entries keyed by benchmark name.
func loadBenchRecord(t *testing.T, path string, wantPR int) map[string]benchEntry {
	t.Helper()
	entries, _ := loadBenchRecordComm(t, path, wantPR)
	return entries
}

// loadBenchRecordComm is loadBenchRecord plus the record's comm section.
func loadBenchRecordComm(t *testing.T, path string, wantPR int) (map[string]benchEntry, []commEntry) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("benchmark record missing: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rec benchRecord
	if err := dec.Decode(&rec); err != nil {
		t.Fatalf("%s malformed: %v", path, err)
	}
	if dec.More() {
		t.Fatalf("%s: trailing data after the record", path)
	}
	if rec.PR != wantPR {
		t.Errorf("pr = %d, want %d", rec.PR, wantPR)
	}
	if rec.Host.NumCPU < 1 || rec.Host.CPU == "" || rec.Host.Note == "" {
		t.Errorf("host block incomplete: %+v", rec.Host)
	}
	if len(rec.Benchmarks) == 0 {
		t.Fatal("no benchmark entries")
	}
	entries := make(map[string]benchEntry, len(rec.Benchmarks))
	for _, b := range rec.Benchmarks {
		if !strings.HasPrefix(b.Name, "Benchmark") {
			t.Errorf("entry %q: name is not a Go benchmark", b.Name)
		}
		if _, dup := entries[b.Name]; dup {
			t.Errorf("entry %q: duplicate", b.Name)
		}
		entries[b.Name] = b
		if b.After == nil {
			t.Errorf("entry %q: missing after measurement", b.Name)
			continue
		}
		for _, m := range []*benchMeasure{b.Before, b.After} {
			if m == nil {
				continue // before is null for benchmarks the PR introduced
			}
			if m.NsOp <= 0 || m.BOp < 0 || m.AllocsOp < 0 {
				t.Errorf("entry %q: implausible measurement %+v", b.Name, *m)
			}
		}
	}
	for _, c := range rec.Comm {
		if c.Name == "" || c.Leaves < 0 || c.LegacyBytes <= 0 || c.MerkleBytes <= 0 {
			t.Errorf("comm entry %+v: implausible measurement", c)
		}
	}
	return entries, rec.Comm
}

func TestBenchRecordWellFormed(t *testing.T) {
	loadBenchRecord(t, "BENCH_pr3.json", 3)
}

// TestBenchRecordPR8Gates validates BENCH_pr8.json and enforces the PR's
// headline claims on the recorded numbers themselves.
func TestBenchRecordPR8Gates(t *testing.T) {
	entries := loadBenchRecord(t, "BENCH_pr8.json", 8)

	// Gate 1: the batched GEMM TrainStep must be at least 2x the serial
	// per-example path.
	serial, ok := entries["BenchmarkTrainStep/serial"]
	if !ok || serial.After == nil {
		t.Fatal("record lacks BenchmarkTrainStep/serial")
	}
	batched, ok := entries["BenchmarkTrainStep/batched"]
	if !ok || batched.After == nil {
		t.Fatal("record lacks BenchmarkTrainStep/batched")
	}
	if serial.After.NsOp < 2*batched.After.NsOp {
		t.Errorf("batched TrainStep speedup %.2fx below the claimed 2x (serial %d ns/op, batched %d ns/op)",
			float64(serial.After.NsOp)/float64(batched.After.NsOp),
			serial.After.NsOp, batched.After.NsOp)
	}

	// Gate 2: the steady-state binary encode paths must be allocation-free.
	for _, name := range []string{"BenchmarkEncodeTask", "BenchmarkEncodeResult"} {
		e, ok := entries[name]
		if !ok || e.After == nil {
			t.Errorf("record lacks %s", name)
			continue
		}
		if e.After.AllocsOp != 0 {
			t.Errorf("%s: %d allocs/op recorded, want 0 (warm reused buffer)", name, e.After.AllocsOp)
		}
	}

	// Gate 3: the binary task decode must beat the legacy JSON+base64
	// fallback it replaced (same LSH-free task shape).
	bin, binOK := entries["BenchmarkDecodeTask"]
	legacy, legOK := entries["BenchmarkDecodeTaskLegacyJSON"]
	if !binOK || !legOK || bin.After == nil || legacy.After == nil {
		t.Fatal("record lacks the decode pair (BenchmarkDecodeTask, BenchmarkDecodeTaskLegacyJSON)")
	}
	if bin.After.NsOp >= legacy.After.NsOp {
		t.Errorf("binary decode (%d ns/op) not faster than the legacy JSON fallback (%d ns/op)",
			bin.After.NsOp, legacy.After.NsOp)
	}
}

// TestBenchRecordPR9Gates validates BENCH_pr9.json — the streaming Merkle
// commitment record — and enforces the O(n) vs O(log n) claim on the
// recorded byte counts themselves.
func TestBenchRecordPR9Gates(t *testing.T) {
	entries, comm := loadBenchRecordComm(t, "BENCH_pr9.json", 9)

	byName := make(map[string]commEntry, len(comm))
	for _, c := range comm {
		if _, dup := byName[c.Name]; dup {
			t.Errorf("comm entry %q: duplicate", c.Name)
		}
		byName[c.Name] = c
	}

	// Gate 1: the verification commitment share. Legacy is O(n) — the full
	// hash list plus one inline digest per leaf — while the Merkle scheme
	// must match its closed form exactly: a 32-byte root plus 2q+2 proof
	// pulls of (8 + depth*32) proof bytes and one riding 32-byte digest,
	// with depth = ceil(log2(leaves)).
	for _, name := range []string{
		"verify-commitment-bytes/64-checkpoints",
		"verify-commitment-bytes/1024-checkpoints",
	} {
		c, ok := byName[name]
		if !ok {
			t.Fatalf("record lacks comm entry %q", name)
		}
		if c.Leaves < 65 {
			t.Errorf("%s: %d leaves, want a 64-checkpoint-plus epoch", name, c.Leaves)
		}
		if c.LegacyBytes < 32*int64(c.Leaves) {
			t.Errorf("%s: legacy bytes %d below the 32*n hash-list floor", name, c.LegacyBytes)
		}
		depth := 0
		for w := 1; w < c.Leaves; w *= 2 {
			depth++
		}
		if want := 8 + 32*depth; c.ProofSize != want {
			t.Errorf("%s: proof size %d, want %d for depth %d", name, c.ProofSize, want, depth)
		}
		if want := 2*c.Samples + 2; c.ProofPulls != want {
			t.Errorf("%s: %d proof pulls, want 2q+2 = %d", name, c.ProofPulls, want)
		}
		if want := int64(32 + c.ProofPulls*(c.ProofSize+c.DigestSize)); c.MerkleBytes != want {
			t.Errorf("%s: merkle bytes %d diverge from the O(log n) closed form %d", name, c.MerkleBytes, want)
		}
		if c.MerkleBytes >= c.LegacyBytes {
			t.Errorf("%s: merkle bytes %d not below legacy %d", name, c.MerkleBytes, c.LegacyBytes)
		}
	}

	// Gate 2: the asymptotic separation. Growing the epoch 16x must grow
	// the legacy bill ~linearly while the Merkle bill only gains one tree
	// level per doubling; at 1024 checkpoints the drop must be >= 8x.
	small := byName["verify-commitment-bytes/64-checkpoints"]
	large := byName["verify-commitment-bytes/1024-checkpoints"]
	if large.LegacyBytes < 8*small.LegacyBytes {
		t.Errorf("legacy bytes not O(n): %d at n=64 vs %d at n=1024", small.LegacyBytes, large.LegacyBytes)
	}
	if large.MerkleBytes > 2*small.MerkleBytes {
		t.Errorf("merkle bytes not O(log n): %d at n=64 vs %d at n=1024", small.MerkleBytes, large.MerkleBytes)
	}
	if 8*large.MerkleBytes > large.LegacyBytes {
		t.Errorf("1024-checkpoint drop %.1fx below the claimed 8x (legacy %d, merkle %d)",
			float64(large.LegacyBytes)/float64(large.MerkleBytes), large.LegacyBytes, large.MerkleBytes)
	}

	// Gate 3: the submission frame sheds the inline commitment blob — the
	// root form must save at least the hash list (32 bytes per leaf).
	frame, ok := byName["submission-frame-bytes/64-checkpoints"]
	if !ok {
		t.Fatal("record lacks comm entry submission-frame-bytes/64-checkpoints")
	}
	if saved := frame.LegacyBytes - frame.MerkleBytes; saved < 32*int64(frame.Leaves) {
		t.Errorf("root submission saves only %d bytes, want >= %d (the inline hash list)",
			saved, 32*frame.Leaves)
	}

	// Gate 4: streaming commitment must not cost more than the deferred
	// batch build it replaces, and the steady-state encode paths for the
	// new wire forms must stay allocation-free.
	inc, incOK := entries["BenchmarkIncrementalMerkle"]
	batch, batchOK := entries["BenchmarkMerkleTreeBuild"]
	if !incOK || !batchOK || inc.After == nil || batch.After == nil {
		t.Fatal("record lacks the build pair (BenchmarkIncrementalMerkle, BenchmarkMerkleTreeBuild)")
	}
	if inc.After.NsOp > batch.After.NsOp {
		t.Errorf("incremental build (%d ns/op) slower than batch build (%d ns/op)",
			inc.After.NsOp, batch.After.NsOp)
	}
	for _, name := range []string{"BenchmarkEncodeResultRoot", "BenchmarkEncodeProofResponse"} {
		e, ok := entries[name]
		if !ok || e.After == nil {
			t.Errorf("record lacks %s", name)
			continue
		}
		if e.After.AllocsOp != 0 {
			t.Errorf("%s: %d allocs/op recorded, want 0 (warm reused buffer)", name, e.After.AllocsOp)
		}
	}
}

// e2eRuns is one side's runs of one end-to-end metric, with the summary the
// record claims for them.
type e2eRuns struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

// e2eRecord is a record of the repo benchmark (benchmark/run.sh --trace 0):
// alternating pairs of the parent commit and the change on one host.
type e2eRecord struct {
	PR      int    `json:"pr"`
	Parent  string `json:"parent"`
	Command string `json:"command"`
	Host    struct {
		GOOS   string `json:"goos"`
		GOARCH string `json:"goarch"`
		CPU    string `json:"cpu"`
		NumCPU int    `json:"num_cpu"`
		Go     string `json:"go"`
		Note   string `json:"note"`
	} `json:"host"`
	Workloads []struct {
		Name      string         `json:"name"`
		Pairs     int            `json:"pairs"`
		Attempted map[string]int `json:"attempted"`
		Failed    map[string]int `json:"failed"`
		Metrics   []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Parent e2eRuns `json:"parent"`
			Change e2eRuns `json:"change"`
			Wins   int     `json:"wins"`
			Ties   int     `json:"ties"`
		} `json:"metrics"`
	} `json:"workloads"`
	// Fixed lists one run per side and workload whose time box admits
	// exactly one task (--seconds below a task's length), so both sides do
	// the same work from the same seed: the basis of the "==" rows. Absent
	// from records that claim no equality.
	Fixed []struct {
		Workload string         `json:"workload"`
		Command  string         `json:"command"`
		Tasks    map[string]int `json:"tasks"`
		Metrics  []struct {
			Name   string  `json:"name"`
			Parent float64 `json:"parent"`
			Change float64 `json:"change"`
		} `json:"metrics"`
	} `json:"fixed,omitempty"`
	// Traced holds traced pairs — one on the claimed workload, or a list
	// with one per workload the change reaches: the per-layer numbers that
	// show where the saving sits. Informational, not gated.
	Traced tracedPairs `json:"traced"`
}

type tracedPair struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Layers   []struct {
		Name   string  `json:"name"`
		Parent float64 `json:"parent"`
		Change float64 `json:"change"`
	} `json:"layers"`
}

// tracedPairs decodes a record's "traced" member: one pair, as the earlier
// records hold, or a list of them.
type tracedPairs []tracedPair

func (t *tracedPairs) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if bytes.HasPrefix(bytes.TrimSpace(data), []byte("[")) {
		return dec.Decode((*[]tracedPair)(t))
	}
	*t = make(tracedPairs, 1)
	return dec.Decode(&(*t)[0])
}

// e2eGate is one row of a record's comparator: on workload ("*" for each),
// the change's median of metric must stand in relation to factor × the
// parent's median. The relation "claim<=" is "<=" for a claimed gain, which
// must also satisfy the paired-run rule: the change better on at least nine
// tenths of the pairs, and the medians further apart than the parent's own
// quartiles. The relation "==" ignores factor and reads the record's
// fixed-size runs instead: at equal task counts the two sides' values must be
// equal to the digit.
type e2eGate struct {
	workload, metric, relation string
	factor                     float64
}

// e2eGates lists every end-to-end record and its rows. A later PR adds a
// file and rows here, not a gate function.
var e2eGates = []struct {
	file     string
	pr       int
	minPairs map[string]int
	rows     []e2eGate
}{
	{
		file:     "BENCH_pr15.json",
		pr:       15,
		minPairs: map[string]int{"ref10_v2_tcp": 5, "proofs4_v2_tcp": 1, "wide16_v1_tcp": 1, "durable8_v2_disk": 1},
		rows: []e2eGate{
			// The claim: remote workers, probes and replay on the batched
			// runtime take at least 35 % off the reference epoch.
			{"ref10_v2_tcp", "epoch_s_p50", "claim<=", 0.65},
			// Co-movers the issue predicted.
			{"wide16_v1_tcp", "epoch_s_p50", "<=", 0.75},
			{"proofs4_v2_tcp", "epoch_s_p50", "<=", 0.90},
			{"ref10_v2_tcp", "alloc_mb_per_epoch", "<=", 0.50},
			// Nothing worse than BENCHMARK.json's bound, anywhere.
			{"*", "setup_s", "<=", 1.25},
			{"*", "epoch_s_p50", "<=", 1.25},
			{"*", "submissions_per_s", ">=", 0.75},
			{"*", "io_bytes_per_epoch", "<=", 1.05},
			{"*", "alloc_mb_per_epoch", "<=", 1.01},
			{"*", "adv_detect_rate", ">=", 0.85},
			{"*", "final_accuracy", ">=", 0.90},
		},
	},
	{
		file:     "BENCH_pr22.json",
		pr:       22,
		minPairs: map[string]int{"ref10_v2_tcp": 10, "proofs4_v2_tcp": 3, "wide16_v1_tcp": 3, "durable8_v2_disk": 3},
		rows: []e2eGate{
			// The claim: with one owner per model-sized buffer the reference
			// epoch allocates at most 0.65 × what it did.
			{"ref10_v2_tcp", "alloc_mb_per_epoch", "claim<=", 0.65},
			// The same owners serve the other workloads: none allocates more.
			{"proofs4_v2_tcp", "alloc_mb_per_epoch", "<=", 1},
			{"wide16_v1_tcp", "alloc_mb_per_epoch", "<=", 1},
			{"durable8_v2_disk", "alloc_mb_per_epoch", "<=", 1},
			// Reuse moves no bit: same bytes, verdicts and model at equal work.
			{"*", "io_bytes_per_epoch", "==", 0},
			{"*", "adv_detect_rate", "==", 0},
			{"*", "final_accuracy", "==", 0},
			// Nothing worse than BENCHMARK.json's bound, anywhere.
			{"*", "setup_s", "<=", 1.25},
			{"*", "epoch_s_p50", "<=", 1.25},
			{"*", "submissions_per_s", ">=", 0.75},
			{"*", "io_bytes_per_epoch", "<=", 1.05},
			{"*", "adv_detect_rate", ">=", 0.85},
			{"*", "final_accuracy", ">=", 0.90},
		},
	},
	{
		file:     "BENCH_pr23.json",
		pr:       23,
		minPairs: map[string]int{"ref10_v2_tcp": 3, "proofs4_v2_tcp": 3, "wide16_v1_tcp": 3, "durable8_v2_disk": 10},
		rows: []e2eGate{
			// The claim: one sync per protocol phase instead of two per
			// checkpoint and one per record takes at least a fifth off the
			// durable epoch.
			{"durable8_v2_disk", "epoch_s_p50", "claim<=", 0.80},
			// Each checkpoint is written once and checkpoint 0 not at all;
			// no per-frame or per-record buffer is allocated anew.
			{"durable8_v2_disk", "io_bytes_per_epoch", "<=", 0.85},
			{"durable8_v2_disk", "alloc_mb_per_epoch", "<=", 1},
			// No bit moves: the wire carries the same bytes, and every
			// workload reaches the same verdicts and model at equal work.
			{"ref10_v2_tcp", "io_bytes_per_epoch", "==", 0},
			{"proofs4_v2_tcp", "io_bytes_per_epoch", "==", 0},
			{"wide16_v1_tcp", "io_bytes_per_epoch", "==", 0},
			{"*", "adv_detect_rate", "==", 0},
			{"*", "final_accuracy", "==", 0},
			// Nothing worse than BENCHMARK.json's bound, anywhere.
			{"*", "setup_s", "<=", 1.25},
			{"*", "epoch_s_p50", "<=", 1.25},
			{"*", "submissions_per_s", ">=", 0.75},
			{"*", "io_bytes_per_epoch", "<=", 1.05},
			{"*", "alloc_mb_per_epoch", "<=", 1.01},
			{"*", "adv_detect_rate", ">=", 0.85},
			{"*", "final_accuracy", ">=", 0.90},
		},
	},
	{
		file:     "BENCH_pr24.json",
		pr:       24,
		minPairs: map[string]int{"ref10_v2_tcp": 3, "proofs4_v2_tcp": 3, "wide16_v1_tcp": 10, "durable8_v2_disk": 3},
		rows: []e2eGate{
			// The claim: a verifier that pulls each committed leaf at most
			// once and the two bound leaves never moves at most three
			// quarters of the bytes-heavy v1 epoch's bytes.
			{"wide16_v1_tcp", "io_bytes_per_epoch", "claim<=", 0.75},
			// Vectors that are not pulled are not decoded or allocated.
			{"wide16_v1_tcp", "alloc_mb_per_epoch", "<=", 0.90},
			// At the reference shape (8 intervals, v2) the saving is the
			// closed form's 12.5 % of the openings.
			{"ref10_v2_tcp", "io_bytes_per_epoch", "<=", 0.96},
			// No wire in the durable pool: its bytes are the journal's and
			// the segments', unmoved but for the seal's tally — a JSON
			// number that loses a digit in some epochs.
			{"durable8_v2_disk", "io_bytes_per_epoch", "<=", 1},
			{"durable8_v2_disk", "io_bytes_per_epoch", ">=", 0.9999},
			// Only bytes move: same verdicts, same model at equal work.
			{"*", "adv_detect_rate", "==", 0},
			{"*", "final_accuracy", "==", 0},
			// Nothing worse than BENCHMARK.json's bound, anywhere.
			{"*", "setup_s", "<=", 1.25},
			{"*", "epoch_s_p50", "<=", 1.25},
			{"*", "submissions_per_s", ">=", 0.75},
			{"*", "io_bytes_per_epoch", "<=", 1.05},
			{"*", "alloc_mb_per_epoch", "<=", 1.01},
			{"*", "adv_detect_rate", ">=", 0.85},
			{"*", "final_accuracy", ">=", 0.90},
		},
	},
	{
		file:     "BENCH_pr31.json",
		pr:       31,
		minPairs: map[string]int{"ref10_v2_tcp": 3, "proofs4_v2_tcp": 10, "wide16_v1_tcp": 3, "durable8_v2_disk": 3},
		rows: []e2eGate{
			// The claim: device noise and LSH projections drawn by a keyed
			// counter-based generator instead of a math/rand stream take at
			// least a tenth off the challenge-heavy epoch.
			{"proofs4_v2_tcp", "epoch_s_p50", "claim<=", 0.90},
			// No noise scratch, no bias shared across lengths, no RNG per
			// device: nothing allocates more.
			{"*", "alloc_mb_per_epoch", "<=", 1},
			// A new noise realization moves which intervals miss the LSH match
			// and need a double-check, so bytes, detection and accuracy are held
			// to BENCHMARK.json's bounds, not to the digit.
			{"*", "setup_s", "<=", 1.25},
			{"*", "epoch_s_p50", "<=", 1.25},
			{"*", "submissions_per_s", ">=", 0.75},
			{"*", "io_bytes_per_epoch", "<=", 1.05},
			{"*", "adv_detect_rate", ">=", 0.85},
			{"*", "final_accuracy", ">=", 0.90},
		},
	},
	{
		file:     "BENCH_pr36.json",
		pr:       36,
		minPairs: map[string]int{"ref10_v2_tcp": 10, "proofs4_v2_tcp": 3, "wide16_v1_tcp": 3, "durable8_v2_disk": 3},
		rows: []e2eGate{
			// The claim: with every model-sized buffer kept by its owner
			// across epochs — traces, probes, replay outputs, the LSH family,
			// endpoint frames, decoded vectors — the reference epoch
			// allocates at most 0.60 × what it did.
			{"ref10_v2_tcp", "alloc_mb_per_epoch", "claim<=", 0.60},
			// The same owners serve the other workloads: none allocates more.
			{"proofs4_v2_tcp", "alloc_mb_per_epoch", "<=", 1},
			{"wide16_v1_tcp", "alloc_mb_per_epoch", "<=", 1},
			{"durable8_v2_disk", "alloc_mb_per_epoch", "<=", 1},
			// Reuse moves no bit: same bytes, verdicts and model at equal work.
			{"*", "io_bytes_per_epoch", "==", 0},
			{"*", "adv_detect_rate", "==", 0},
			{"*", "final_accuracy", "==", 0},
			// Nothing worse than BENCHMARK.json's bound, anywhere.
			{"*", "setup_s", "<=", 1.25},
			{"*", "epoch_s_p50", "<=", 1.25},
			{"*", "submissions_per_s", ">=", 0.75},
			{"*", "io_bytes_per_epoch", "<=", 1.05},
			{"*", "adv_detect_rate", ">=", 0.85},
			{"*", "final_accuracy", ">=", 0.90},
		},
	},
	{
		file:     "BENCH_pr37.json",
		pr:       37,
		minPairs: map[string]int{"ref10_v2_tcp": 3, "proofs4_v2_tcp": 10, "wide16_v1_tcp": 3, "durable8_v2_disk": 3},
		rows: []e2eGate{
			// The claim: keyed noise and the LSH projections on vector
			// kernels that keep every bit take at least an eighth off the
			// challenge-heavy epoch, which settles more submissions a second.
			{"proofs4_v2_tcp", "epoch_s_p50", "claim<=", 0.88},
			{"proofs4_v2_tcp", "submissions_per_s", ">=", 1},
			// No bit moves: same bytes, verdicts and model at equal work.
			{"*", "io_bytes_per_epoch", "==", 0},
			{"*", "adv_detect_rate", "==", 0},
			{"*", "final_accuracy", "==", 0},
			// One lane-packed vector per family in place of K·L: the
			// workloads that build families allocate no more. wide16 builds
			// none, and its figure moves by about 1 % between identical runs.
			{"ref10_v2_tcp", "alloc_mb_per_epoch", "<=", 1},
			{"proofs4_v2_tcp", "alloc_mb_per_epoch", "<=", 1},
			{"durable8_v2_disk", "alloc_mb_per_epoch", "<=", 1},
			// Nothing worse than BENCHMARK.json's bound, anywhere.
			{"*", "alloc_mb_per_epoch", "<=", 1.01},
			{"*", "setup_s", "<=", 1.25},
			{"*", "epoch_s_p50", "<=", 1.25},
			{"*", "submissions_per_s", ">=", 0.75},
			{"*", "io_bytes_per_epoch", "<=", 1.05},
			{"*", "adv_detect_rate", ">=", 0.85},
			{"*", "final_accuracy", ">=", 0.90},
		},
	},
	{
		file:     "BENCH_pr39.json",
		pr:       39,
		minPairs: map[string]int{"ref10_v2_tcp": 10, "proofs4_v2_tcp": 3, "wide16_v1_tcp": 3, "durable8_v2_disk": 3},
		rows: []e2eGate{
			// The claim: the dense training step — forward with its bias,
			// ∂W/∂x/∂b, SGDM and ReLU — on AVX-512 kernels that keep every
			// bit takes at least an eighth off the reference epoch.
			{"ref10_v2_tcp", "epoch_s_p50", "claim<=", 0.88},
			// No bit moves: same bytes, verdicts and model at equal work.
			{"*", "io_bytes_per_epoch", "==", 0},
			{"*", "adv_detect_rate", "==", 0},
			{"*", "final_accuracy", "==", 0},
			// Nothing worse than BENCHMARK.json's bound, anywhere. The
			// kernels allocate nothing; the time-boxed allocation medians sit
			// within 0.06 % of the parent's, both ways (see the host note).
			{"*", "alloc_mb_per_epoch", "<=", 1.01},
			{"*", "setup_s", "<=", 1.25},
			{"*", "epoch_s_p50", "<=", 1.25},
			{"*", "submissions_per_s", ">=", 0.75},
			{"*", "io_bytes_per_epoch", "<=", 1.05},
			{"*", "adv_detect_rate", ">=", 0.85},
			{"*", "final_accuracy", ">=", 0.90},
		},
	},
}

// quantileOf is the linear-interpolation quantile benchmark/stats.go uses.
func quantileOf(runs []float64, q float64) float64 {
	s := append([]float64(nil), runs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// TestBenchRecordE2EGates validates every end-to-end benchmark record and
// enforces its rows on the recorded runs themselves.
func TestBenchRecordE2EGates(t *testing.T) {
	for _, g := range e2eGates {
		t.Run(g.file, func(t *testing.T) {
			data, err := os.ReadFile(g.file)
			if err != nil {
				t.Fatalf("benchmark record missing: %v", err)
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			var rec e2eRecord
			if err := dec.Decode(&rec); err != nil {
				t.Fatalf("%s malformed: %v", g.file, err)
			}
			if rec.PR != g.pr || rec.Parent == "" || !strings.Contains(rec.Command, "benchmark/run.sh") {
				t.Errorf("header incomplete: pr %d, parent %q, command %q", rec.PR, rec.Parent, rec.Command)
			}
			if rec.Host.NumCPU < 1 || rec.Host.CPU == "" || rec.Host.Go == "" || rec.Host.Note == "" {
				t.Errorf("host block incomplete: %+v", rec.Host)
			}
			type key struct{ workload, metric string }
			type pair struct {
				parent, change e2eRuns
				pairs, wins    int
			}
			metrics := make(map[key]pair)
			var workloads []string
			for _, w := range rec.Workloads {
				workloads = append(workloads, w.Name)
				if w.Pairs < g.minPairs[w.Name] || g.minPairs[w.Name] == 0 {
					t.Errorf("%s: %d pairs, want a known workload with at least %d", w.Name, w.Pairs, g.minPairs[w.Name])
				}
				for _, side := range []string{"parent", "change"} {
					if w.Attempted[side] < 1 || w.Failed[side] != 0 {
						t.Errorf("%s %s: %d of %d operations failed", w.Name, side, w.Failed[side], w.Attempted[side])
					}
				}
				if len(w.Metrics) != 7 {
					t.Errorf("%s: %d end-to-end metrics, want all 7", w.Name, len(w.Metrics))
				}
				for _, m := range w.Metrics {
					for side, r := range map[string]e2eRuns{"parent": m.Parent, "change": m.Change} {
						if len(r.Runs) != w.Pairs {
							t.Fatalf("%s %s %s: %d runs, want %d", w.Name, m.Name, side, len(r.Runs), w.Pairs)
						}
						for q, claimed := range map[float64]float64{0.25: r.Q1, 0.5: r.Median, 0.75: r.Q3} {
							if got := quantileOf(r.Runs, q); math.Abs(got-claimed) > 1e-9*math.Abs(got) {
								t.Errorf("%s %s %s: quantile %.2f recorded as %v, runs give %v", w.Name, m.Name, side, q, claimed, got)
							}
						}
					}
					metrics[key{w.Name, m.Name}] = pair{m.Parent, m.Change, w.Pairs, m.Wins}
				}
			}
			type fixedRun struct {
				parent, change float64
				tasks          map[string]int
			}
			fixed := make(map[key]fixedRun)
			for _, f := range rec.Fixed {
				if !strings.Contains(f.Command, "benchmark/run.sh") {
					t.Errorf("%s: fixed-size run has no command", f.Workload)
				}
				for _, m := range f.Metrics {
					fixed[key{f.Workload, m.Name}] = fixedRun{m.Parent, m.Change, f.Tasks}
				}
			}
			if len(workloads) != len(g.minPairs) {
				t.Errorf("workloads %v, want one entry for each of %d", workloads, len(g.minPairs))
			}
			for _, row := range g.rows {
				names := []string{row.workload}
				if row.workload == "*" {
					names = workloads
				}
				for _, name := range names {
					if row.relation == "==" {
						f, ok := fixed[key{name, row.metric}]
						switch {
						case !ok:
							t.Errorf("%s: no fixed-size run of %s", name, row.metric)
						case f.tasks["parent"] < 1 || f.tasks["parent"] != f.tasks["change"]:
							t.Errorf("%s %s: fixed-size runs did %d and %d tasks, want the same work on both sides", name, row.metric, f.tasks["parent"], f.tasks["change"])
						case f.parent != f.change:
							t.Errorf("%s %s: change %v, parent %v at equal task counts, want equal to the digit", name, row.metric, f.change, f.parent)
						}
						continue
					}
					m, ok := metrics[key{name, row.metric}]
					if !ok {
						t.Errorf("%s: no metric %s", name, row.metric)
						continue
					}
					limit := row.factor * m.parent.Median
					held := m.change.Median <= limit
					if row.relation == ">=" {
						held = m.change.Median >= limit
					}
					if !held {
						t.Errorf("%s %s: change median %v, want %s %v (%.2f × parent median %v)",
							name, row.metric, m.change.Median, strings.TrimPrefix(row.relation, "claim"), limit, row.factor, m.parent.Median)
					}
					if row.relation != "claim<=" {
						continue
					}
					if 10*m.wins < 9*m.pairs {
						t.Errorf("%s %s: change won %d of %d pairs, a claim needs nine tenths", name, row.metric, m.wins, m.pairs)
					}
					if gap, iqr := m.parent.Median-m.change.Median, m.parent.Q3-m.parent.Q1; gap <= iqr {
						t.Errorf("%s %s: medians %v apart, inside the parent's own quartile spread %v", name, row.metric, gap, iqr)
					}
				}
			}
		})
	}
}
