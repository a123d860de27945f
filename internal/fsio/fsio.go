// Package fsio is the repo's durable-write layer: every byte the protocol
// persists — checkpoints, the blockchain file, trace files, the epoch
// journal — goes through it. It provides two guarantees the bare
// os.WriteFile call sites it replaced could not:
//
//  1. Atomicity. WriteFileAtomic stages the payload in a temp file, fsyncs
//     it, renames it over the destination, and fsyncs the directory, so a
//     crash mid-write leaves either the old file or the new file — never a
//     torn hybrid.
//  2. Integrity. Frames carry a guarded length prefix and a 64-bit check
//     word of two hardware CRCs, so a reader distinguishes "intact", "torn"
//     (truncated mid-frame), and "corrupt" (bit flip) instead of decoding
//     garbage weights. Every file opens with a versioned header and every
//     record body with a versioned body header (body.go), so bytes of any
//     other format are refused as such, never read as a torn tail.
//
// Both guarantees are testable because the package's filesystem surface is
// the injectable FS interface: the production OS implementation talks to the
// real filesystem, while FaultFS wraps any FS with a deterministic fault
// plan — seeded exactly like netsim.FaultPlan, every decision a pure hash of
// (seed, path, write ordinal) — that can kill the write stream at the Nth
// write, short-write a file, or flip a bit. The crash-recovery tests replay
// every crash point bit-identically from a single seed.
package fsio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Errors classifying unreadable durable data.
var (
	// ErrTornFrame marks a frame truncated mid-write: the bytes end before
	// the frame's declared length. Journal recovery discards torn tails;
	// whole-file readers treat it as corruption.
	ErrTornFrame = errors.New("fsio: torn frame")
	// ErrChecksum marks a frame whose payload bytes do not hash to the
	// recorded checksum: a bit flip or an overwrite, not a truncation.
	ErrChecksum = errors.New("fsio: checksum mismatch")
	// ErrVersion marks durable bytes that are not this build's format: a
	// file whose header, or a record whose body header, names another kind
	// or version, or a body that does not decode as its kind. Readers refuse
	// such bytes whole and leave them untouched.
	ErrVersion = errors.New("fsio: not this build's durable format")
)

// Appender is an open append-only file handle. Write appends at the end;
// Sync makes previous writes durable.
type Appender interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem surface durable writers use. The production
// implementation is OS; tests inject a FaultFS to crash, truncate, or
// corrupt writes deterministically.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// WriteFileAtomic durably replaces path with data: temp file + fsync +
	// rename + directory fsync. After it returns, path holds exactly data;
	// if it fails (or the process dies), path holds its previous content.
	WriteFileAtomic(path string, data []byte) error
	// ReadFile returns the file's contents.
	ReadFile(path string) ([]byte, error)
	// Append opens path for appending, creating it if missing.
	Append(path string) (Appender, error)
	// Remove deletes path.
	Remove(path string) error
	// ReadDir lists the names (not paths) of dir's entries, sorted.
	ReadDir(dir string) ([]string, error)
	// Size returns the file's length in bytes.
	Size(path string) (int64, error)
}

// OS is the production filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("fsio atomic write: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("fsio atomic write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("fsio atomic write: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fsio atomic write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fsio atomic write: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs the directory so the rename itself is durable. Best-effort
// on filesystems that reject directory fsync (some network mounts): the
// rename already happened, so readers see a consistent file either way.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) Append(path string) (Appender, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
}

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Size(path string) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// WriteFileAtomic writes through the production filesystem. Call sites that
// need fault injection take an FS instead.
func WriteFileAtomic(path string, data []byte) error {
	return OS.WriteFileAtomic(path, data)
}
