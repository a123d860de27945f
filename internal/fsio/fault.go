package fsio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sync"
)

// ErrInjectedCrash is the error every FaultFS operation returns once its
// plan has killed the process's write stream. Callers treat it like a
// process death: the run is over, and recovery happens in a fresh process
// over whatever bytes made it to disk.
var ErrInjectedCrash = errors.New("fsio: injected crash")

// FaultPlan is a deterministic filesystem fault schedule, the storage twin
// of netsim.FaultPlan: every decision is a pure function of (seed, path,
// write ordinal) — never of goroutine scheduling or the wall clock — so a
// seeded crash replays bit-identically, which is what lets the recovery
// tests crash a run at every write ordinal and compare resumed state
// against the crash-free run. A write ordinal is one durable operation:
// one WriteFileAtomic, one Appender.Write or one Appender.Sync.
//
// A nil *FaultPlan is valid and injects nothing.
type FaultPlan struct {
	seed int64
	cfg  FaultConfig
}

// FaultConfig parameterizes a FaultPlan. Rates are probabilities in [0, 1];
// a zero config injects nothing even with a non-zero seed.
type FaultConfig struct {
	// CrashAtWrite, when non-zero, kills the write stream at exactly the
	// (CrashAtWrite−1)-th write ordinal (so 1 crashes the first write). A
	// dying atomic write leaves the old file; every appended-to file — the
	// dying operation's included — keeps only a deterministic prefix of the
	// bytes written since its last successful Sync, so an append that was
	// never synced may vanish whole, survive whole, or end in a torn tail. Every
	// subsequent operation fails with ErrInjectedCrash.
	CrashAtWrite uint64
	// CrashRate is the per-write probability of the same death, for
	// randomized soaks rather than exhaustive sweeps.
	CrashRate float64
	// ShortWriteRate is the per-write probability that a write silently
	// persists only a prefix of its bytes while reporting success —
	// modelling lost trailing sectors discovered only at read time.
	ShortWriteRate float64
	// BitFlipRate is the per-write probability that one deterministically
	// chosen bit of the payload is flipped — modelling bit rot the
	// checksum layer must catch.
	BitFlipRate float64
}

// NewFaultPlan derives a plan from the seed. The same (seed, cfg) always
// yields the same schedule.
func NewFaultPlan(seed int64, cfg FaultConfig) *FaultPlan {
	return &FaultPlan{seed: seed, cfg: cfg}
}

// CrashAtWrite is the exhaustive-sweep constructor: a plan whose only fault
// is a crash at the given 0-based write ordinal. seed still individualizes
// how much of each file's un-synced tail survives.
func CrashAtWrite(seed int64, ordinal uint64) *FaultPlan {
	return NewFaultPlan(seed, FaultConfig{CrashAtWrite: ordinal + 1})
}

// WriteFault is one write's injected behaviour.
type WriteFault struct {
	// Crash kills the stream at this write: a prefix persists, the
	// operation fails, and the FaultFS goes permanently down.
	Crash bool
	// Short silently persists only a prefix while reporting success.
	Short bool
	// FlipBit corrupts one payload bit while reporting success.
	FlipBit bool
	// Fraction positions the fault within the payload: the persisted
	// prefix length (Crash/Short) or the flipped bit (FlipBit) is this
	// fraction of the way through, in [0, 1).
	Fraction float64
}

// Decide returns the fault injected into the ord-th write (a process-global
// ordinal maintained by the FaultFS) landing on path. Only the path's base
// name enters the hash: fault schedules then replay identically when the
// same run executes under a different root directory (every recovery test
// runs in a fresh temp dir).
func (p *FaultPlan) Decide(path string, ord uint64) WriteFault {
	if p == nil {
		return WriteFault{}
	}
	path = filepath.Base(path)
	if p.cfg.CrashAtWrite != 0 && ord == p.cfg.CrashAtWrite-1 {
		return WriteFault{Crash: true, Fraction: p.uniform("crash-keep", path, ord)}
	}
	if p.cfg.CrashRate > 0 && p.uniform("crash", path, ord) < p.cfg.CrashRate {
		return WriteFault{Crash: true, Fraction: p.uniform("crash-keep", path, ord)}
	}
	if p.cfg.ShortWriteRate > 0 && p.uniform("short", path, ord) < p.cfg.ShortWriteRate {
		return WriteFault{Short: true, Fraction: p.uniform("short-keep", path, ord)}
	}
	if p.cfg.BitFlipRate > 0 && p.uniform("flip", path, ord) < p.cfg.BitFlipRate {
		return WriteFault{FlipBit: true, Fraction: p.uniform("flip-pos", path, ord)}
	}
	return WriteFault{}
}

// hash mixes the seed with the decision's identity into 64 uniform bits
// (FNV-1a finalized with SplitMix64, as in netsim).
func (p *FaultPlan) hash(kind, path string, n uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(p.seed))
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(kind))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(path))
	_, _ = h.Write([]byte{0})
	binary.BigEndian.PutUint64(buf[:], n)
	_, _ = h.Write(buf[:])
	return splitmix64(h.Sum64())
}

// uniform maps a decision's hash to [0, 1).
func (p *FaultPlan) uniform(kind, path string, n uint64) float64 {
	return float64(p.hash(kind, path, n)>>11) / float64(uint64(1)<<53)
}

// splitmix64 is the finalizer of the SplitMix64 generator: a strong 64-bit
// mix that decorrelates the structured FNV input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FaultFS wraps an FS with a FaultPlan. Every durable operation — one
// WriteFileAtomic call, one Appender.Write call or one Appender.Sync call —
// consumes one process-global write ordinal; the plan maps (path, ordinal) to
// a fault. Appended bytes are durable only once a Sync on their file has
// succeeded after them — closing the handle is not a barrier — and an
// injected crash cuts every file with an un-synced tail back to a seeded
// prefix of that tail (see unsyncedKeep): what a missing fsync loses on a
// real disk. After an injected crash the FaultFS is permanently down: every
// operation, reads included, fails with ErrInjectedCrash, exactly as the
// filesystem looks to a process that just died. A nil plan counts ordinals
// without injecting — the recovery sweep uses that to size its crash
// schedule.
type FaultFS struct {
	inner FS
	plan  *FaultPlan

	mu   sync.Mutex
	ord  uint64
	down bool
	// unsynced counts, per path, the trailing bytes appended since the last
	// successful Sync on that file.
	unsynced map[string]int
}

var _ FS = (*FaultFS)(nil)

// NewFaultFS wraps inner with the plan.
func NewFaultFS(inner FS, plan *FaultPlan) *FaultFS {
	return &FaultFS{inner: inner, plan: plan, unsynced: make(map[string]int)}
}

// Writes returns the number of write ordinals consumed so far.
func (f *FaultFS) Writes() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ord
}

// prefixLen maps a fault's fraction to a strict prefix of an n-byte payload.
func prefixLen(frac float64, n int) int {
	keep := int(frac * float64(n))
	if keep >= n && n > 0 {
		keep = n - 1
	}
	if keep < 0 {
		keep = 0
	}
	return keep
}

// unsyncedKeep maps a crash's fraction to how many of a file's n un-synced
// bytes survive it. The outer quarters of the range are the two boundary
// outcomes — nothing reached the disk, everything did — so an exhaustive
// sweep meets both often; the middle half is a torn tail.
func unsyncedKeep(frac float64, n int) int {
	switch {
	case frac < 0.25:
		return 0
	case frac >= 0.75:
		return n
	default:
		return int((frac - 0.25) * 2 * float64(n))
	}
}

// corrupt applies a short-write or bit-flip fault to data, returning the
// bytes that actually persist. The input is not modified.
func corrupt(fault WriteFault, data []byte) []byte {
	switch {
	case fault.Short:
		return data[:prefixLen(fault.Fraction, len(data))]
	case fault.FlipBit && len(data) > 0:
		out := append([]byte(nil), data...)
		bit := int(fault.Fraction * float64(len(out)*8))
		if bit >= len(out)*8 {
			bit = len(out)*8 - 1
		}
		out[bit/8] ^= 1 << (bit % 8)
		return out
	default:
		return data
	}
}

// guard fails the operation when the filesystem is already down.
func (f *FaultFS) guard() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return ErrInjectedCrash
	}
	return nil
}

// nextLocked consumes one write ordinal and returns the fault the plan
// injects into it. f.mu must be held and the filesystem up.
func (f *FaultFS) nextLocked(path string) (WriteFault, uint64) {
	ord := f.ord
	f.ord++
	return f.plan.Decide(path, ord), ord
}

// crashLocked carries out a crash fault at ordinal ord: it marks the
// filesystem down and cuts every un-synced tail back to what the crash
// spares, each file's share a pure function of (seed, base name, ordinal).
// The returned error wraps ErrInjectedCrash. f.mu must be held.
func (f *FaultFS) crashLocked(op, path string, ord uint64) error {
	f.down = true
	for file, n := range f.unsynced {
		lost := n - unsyncedKeep(f.plan.uniform("crash-unsynced", filepath.Base(file), ord), n)
		if lost == 0 {
			continue
		}
		// The FS surface has no truncate; rewriting the survivor through the
		// inner filesystem is the same thing to whoever reads it next.
		if data, err := f.inner.ReadFile(file); err == nil && len(data) >= lost {
			_ = f.inner.WriteFileAtomic(file, data[:len(data)-lost])
		}
	}
	clear(f.unsynced)
	return fmt.Errorf("%s %s at ordinal %d: %w", op, path, ord, ErrInjectedCrash)
}

// MkdirAll passes through (directory creation is not a data write).
func (f *FaultFS) MkdirAll(dir string) error {
	if err := f.guard(); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir)
}

// WriteFileAtomic consumes one write ordinal. A crash fault persists
// nothing — the temp-file + rename discipline means a death mid-write
// leaves the previous file — while short writes and bit flips corrupt the
// payload that lands, modelling storage that lies about durability.
func (f *FaultFS) WriteFileAtomic(path string, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return ErrInjectedCrash
	}
	fault, ord := f.nextLocked(path)
	if fault.Crash {
		return f.crashLocked("atomic write", path, ord)
	}
	delete(f.unsynced, path) // the file is replaced whole
	return f.inner.WriteFileAtomic(path, corrupt(fault, data))
}

// ReadFile passes through unless the filesystem is down.
func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if err := f.guard(); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(path)
}

// Append returns a fault-injecting handle over the inner appender.
func (f *FaultFS) Append(path string) (Appender, error) {
	if err := f.guard(); err != nil {
		return nil, err
	}
	inner, err := f.inner.Append(path)
	if err != nil {
		return nil, err
	}
	return &faultAppender{fs: f, path: path, inner: inner}, nil
}

// Remove passes through unless the filesystem is down.
func (f *FaultFS) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return ErrInjectedCrash
	}
	delete(f.unsynced, path)
	return f.inner.Remove(path)
}

// ReadDir passes through unless the filesystem is down.
func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	if err := f.guard(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

// Size passes through unless the filesystem is down.
func (f *FaultFS) Size(path string) (int64, error) {
	if err := f.guard(); err != nil {
		return 0, err
	}
	return f.inner.Size(path)
}

// faultAppender applies the plan to each append and each sync, and keeps
// the file's un-synced byte count current: a crash anywhere leaves only a
// seeded prefix of those bytes — the torn or missing tail recovery must cope
// with — before killing the filesystem.
type faultAppender struct {
	fs    *FaultFS
	path  string
	inner Appender
}

// Write consumes one write ordinal. The bytes of a dying write join the
// un-synced tail before the crash settles it, so they may survive in full
// although the call reports failure.
func (a *faultAppender) Write(data []byte) (int, error) {
	a.fs.mu.Lock()
	defer a.fs.mu.Unlock()
	if a.fs.down {
		return 0, ErrInjectedCrash
	}
	fault, ord := a.fs.nextLocked(a.path)
	persisted := corrupt(fault, data)
	if _, err := a.inner.Write(persisted); err != nil {
		return 0, err
	}
	a.fs.unsynced[a.path] += len(persisted)
	if fault.Crash {
		return 0, a.fs.crashLocked("append", a.path, ord)
	}
	// Short writes and bit flips report full success: the caller learns
	// about them at read time, through the checksum layer.
	return len(data), nil
}

// Sync consumes one write ordinal — a crash can land on the barrier itself,
// before anything it covers is durable — and otherwise makes every byte
// appended to the file so far durable.
func (a *faultAppender) Sync() error {
	a.fs.mu.Lock()
	defer a.fs.mu.Unlock()
	if a.fs.down {
		return ErrInjectedCrash
	}
	if fault, ord := a.fs.nextLocked(a.path); fault.Crash {
		return a.fs.crashLocked("sync", a.path, ord)
	}
	if err := a.inner.Sync(); err != nil {
		return err
	}
	delete(a.fs.unsynced, a.path)
	return nil
}

// Close releases the handle. It is not a barrier: bytes no Sync covered stay
// un-synced. Closing must work even when down, so crashed runs can release
// their handles before the recovery process takes over.
func (a *faultAppender) Close() error {
	return a.inner.Close()
}
