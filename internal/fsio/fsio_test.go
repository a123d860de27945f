package fsio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), {}, []byte("a longer third payload with \x00 bytes \xff")}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	rest := buf
	for i, want := range payloads {
		got, r, err := ReadFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d payload = %q, want %q", i, got, want)
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestReadFrameTornAtEveryPrefix(t *testing.T) {
	full := AppendFrame(nil, []byte("torn tail victim"))
	for cut := 0; cut < len(full); cut++ {
		_, _, err := ReadFrame(full[:cut])
		if !errors.Is(err, ErrTornFrame) {
			t.Fatalf("cut %d: err = %v, want ErrTornFrame", cut, err)
		}
	}
}

func TestReadFrameDetectsBitFlips(t *testing.T) {
	full := AppendFrame(nil, []byte("bit flip victim"))
	for i := range full {
		flipped := append([]byte(nil), full...)
		flipped[i] ^= 0x01
		_, _, err := ReadFrame(flipped)
		if err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
		// A flipped length byte may read as a torn frame (declared length
		// beyond the buffer); every other flip must be a checksum failure.
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrTornFrame) {
			t.Fatalf("flip at byte %d: unexpected error %v", i, err)
		}
	}
}

func TestEncodeDecodeFile(t *testing.T) {
	payload := []byte(`{"kind":"state"}`)
	enc := EncodeFile(payload)
	got, err := DecodeFile(enc)
	if err != nil {
		t.Fatalf("DecodeFile: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}

	// Unframed files — the pre-fsio formats among them — carry no magic and
	// are refused: nothing vouches for their bytes.
	for _, raw := range [][]byte{[]byte(`{"version":1}`), nil, []byte(fileMagic[:4])} {
		if got, err := DecodeFile(raw); !errors.Is(err, ErrUnframed) || got != nil {
			t.Fatalf("unframed %q: payload %q, err = %v", raw, got, err)
		}
	}

	// A flipped payload bit fails the checksum.
	bad := append([]byte(nil), enc...)
	bad[len(bad)/2] ^= 0x10
	if _, err := DecodeFile(bad); err == nil {
		t.Fatal("corrupted file decoded")
	}

	// Trailing garbage after the frame is corruption, not extra frames.
	if _, err := DecodeFile(append(append([]byte(nil), enc...), 0xEE)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("trailing garbage: err = %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	if err := OS.WriteFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := OS.WriteFileAtomic(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	data, err := OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "second" {
		t.Fatalf("content = %q", data)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temp file left behind")
	}
}

func TestFaultFSCrashAtAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	if err := OS.WriteFileAtomic(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(OS, CrashAtWrite(7, 0))
	err := ffs.WriteFileAtomic(path, []byte("new"))
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("err = %v", err)
	}
	// Atomicity: the dying write leaves the previous content.
	data, err := OS.ReadFile(path)
	if err != nil || string(data) != "old" {
		t.Fatalf("after crash: %q, %v", data, err)
	}
	// The filesystem is permanently down.
	if !ffs.Down() {
		t.Fatal("not down after crash")
	}
	if _, err := ffs.ReadFile(path); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("read after crash: %v", err)
	}
	if err := ffs.MkdirAll(filepath.Join(dir, "x")); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("mkdir after crash: %v", err)
	}
}

func TestFaultFSCrashMidAppendLeavesTornPrefix(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 20)
	// Ordinals: write 0, sync 1, write 2 (dies). The synced first payload
	// survives every crash; of the dying write a seeded prefix does, and
	// across seeds that prefix is sometimes empty, sometimes torn and
	// sometimes the whole payload.
	var sawNone, sawTorn, sawAll bool
	for seed := int64(1); seed <= 64; seed++ {
		path := filepath.Join(t.TempDir(), "journal.wal")
		ffs := NewFaultFS(OS, CrashAtWrite(seed, 2))
		ap, err := ffs.Append(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ap.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := ap.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, err := ap.Write(payload); !errors.Is(err, ErrInjectedCrash) {
			t.Fatalf("seed %d: second write err = %v", seed, err)
		}
		if err := ap.Sync(); !errors.Is(err, ErrInjectedCrash) {
			t.Fatalf("seed %d: sync after crash: %v", seed, err)
		}
		if err := ap.Close(); err != nil {
			t.Fatalf("seed %d: close after crash: %v", seed, err)
		}
		data, err := OS.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < len(payload) || len(data) > 2*len(payload) {
			t.Fatalf("seed %d: persisted %d bytes", seed, len(data))
		}
		if !bytes.Equal(data, append(append([]byte(nil), payload...), payload...)[:len(data)]) {
			t.Fatalf("seed %d: survivor is not a prefix of what was written", seed)
		}
		switch len(data) {
		case len(payload):
			sawNone = true
		case 2 * len(payload):
			sawAll = true
		default:
			sawTorn = true
		}
	}
	if !sawNone || !sawTorn || !sawAll {
		t.Fatalf("64 seeds reached none=%t torn=%t all=%t of the dying write", sawNone, sawTorn, sawAll)
	}
}

// TestFaultFSCrashLosesUnsyncedTails is the rule the group-committed journal
// and the checkpoint segments are tested against: a crash anywhere costs
// every open appender the bytes it wrote since its last successful Sync,
// down to a seeded prefix — not only the appender whose operation died.
func TestFaultFSCrashLosesUnsyncedTails(t *testing.T) {
	synced, tail := []byte("synced-part|"), bytes.Repeat([]byte("unsynced"), 16)
	run := func(seed int64) (a, b []byte) {
		dir := t.TempDir()
		pa, pb := filepath.Join(dir, "a.seg"), filepath.Join(dir, "b.seg")
		// Ordinals: a.write 0, a.sync 1, a.write 2, b.write 3, atomic 4 (dies).
		ffs := NewFaultFS(OS, CrashAtWrite(seed, 4))
		apA, err := ffs.Append(pa)
		if err != nil {
			t.Fatal(err)
		}
		apB, err := ffs.Append(pb)
		if err != nil {
			t.Fatal(err)
		}
		defer apA.Close()
		defer apB.Close()
		for _, step := range []func() error{
			func() error { _, err := apA.Write(synced); return err },
			apA.Sync,
			func() error { _, err := apA.Write(tail); return err },
			func() error { _, err := apB.Write(tail); return err },
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		// The running process sees its own un-synced bytes.
		if data, err := ffs.ReadFile(pa); err != nil || len(data) != len(synced)+len(tail) {
			t.Fatalf("read before crash: %d bytes, %v", len(data), err)
		}
		if size, err := ffs.Size(pb); err != nil || size != int64(len(tail)) {
			t.Fatalf("size before crash: %d, %v", size, err)
		}
		if err := ffs.WriteFileAtomic(filepath.Join(dir, "state.bin"), []byte("x")); !errors.Is(err, ErrInjectedCrash) {
			t.Fatalf("atomic write err = %v", err)
		}
		if a, err = OS.ReadFile(pa); err != nil {
			t.Fatal(err)
		}
		if b, err = OS.ReadFile(pb); err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	var lostA, keptA, lostB, keptB bool
	for seed := int64(1); seed <= 64; seed++ {
		a, b := run(seed)
		if !bytes.HasPrefix(a, synced) || !bytes.HasPrefix(append(append([]byte(nil), synced...), tail...), a) {
			t.Fatalf("seed %d: a.seg kept %q", seed, a)
		}
		if !bytes.HasPrefix(tail, b) {
			t.Fatalf("seed %d: b.seg kept %q", seed, b)
		}
		lostA = lostA || len(a) == len(synced)
		keptA = keptA || len(a) == len(synced)+len(tail)
		lostB = lostB || len(b) == 0
		keptB = keptB || len(b) == len(tail)
		if a2, b2 := run(seed); !bytes.Equal(a, a2) || !bytes.Equal(b, b2) {
			t.Fatalf("seed %d: the surviving prefix is not a function of the seed", seed)
		}
	}
	if !lostA || !keptA || !lostB || !keptB {
		t.Fatalf("64 seeds: a lost-all=%t kept-all=%t, b lost-all=%t kept-all=%t; both ends must be reachable", lostA, keptA, lostB, keptB)
	}
}

func TestFaultFSSyncIsACrashPointAndCloseIsNoBarrier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	payload := []byte("a record nobody synced")

	// Ordinals: write 0, sync 1 (dies): the barrier itself can be the
	// operation that never happens.
	ffs := NewFaultFS(OS, CrashAtWrite(3, 1))
	ap, err := ffs.Append(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := ap.Sync(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("sync err = %v", err)
	}
	if !ffs.Down() || ffs.Writes() != 2 {
		t.Fatalf("down=%t after %d ordinals", ffs.Down(), ffs.Writes())
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := OS.ReadFile(path)
	if err != nil || !bytes.HasPrefix(payload, data) {
		t.Fatalf("after a dying sync: %q, %v", data, err)
	}

	// Closing a handle makes nothing durable: a later crash elsewhere still
	// costs the closed file its un-synced bytes (under some seed, all of
	// them), while a run that never crashes loses nothing.
	lost := false
	for seed := int64(1); seed <= 32 && !lost; seed++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "closed.seg")
		ffs := NewFaultFS(OS, CrashAtWrite(seed, 1))
		ap, err := ffs.Append(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ap.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := ap.Close(); err != nil {
			t.Fatal(err)
		}
		if data, err := OS.ReadFile(path); err != nil || !bytes.Equal(data, payload) {
			t.Fatalf("before the crash: %q, %v", data, err)
		}
		if err := ffs.WriteFileAtomic(filepath.Join(dir, "state.bin"), nil); !errors.Is(err, ErrInjectedCrash) {
			t.Fatalf("atomic write err = %v", err)
		}
		data, err := OS.ReadFile(path)
		if err != nil || !bytes.HasPrefix(payload, data) {
			t.Fatalf("seed %d: after the crash: %q, %v", seed, data, err)
		}
		lost = len(data) == 0
	}
	if !lost {
		t.Fatal("no seed in 32 lost a closed, never-synced file's bytes")
	}
}

func TestFaultFSShortWriteAndBitFlipReportSuccess(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("abcd"), 64)

	short := NewFaultFS(OS, NewFaultPlan(3, FaultConfig{ShortWriteRate: 1}))
	p1 := filepath.Join(dir, "short.bin")
	if err := short.WriteFileAtomic(p1, payload); err != nil {
		t.Fatalf("short write should report success: %v", err)
	}
	data, _ := OS.ReadFile(p1)
	if len(data) >= len(payload) {
		t.Fatalf("short write persisted %d of %d bytes", len(data), len(payload))
	}

	flip := NewFaultFS(OS, NewFaultPlan(3, FaultConfig{BitFlipRate: 1}))
	p2 := filepath.Join(dir, "flip.bin")
	if err := flip.WriteFileAtomic(p2, payload); err != nil {
		t.Fatalf("bit flip should report success: %v", err)
	}
	data, _ = OS.ReadFile(p2)
	if len(data) != len(payload) {
		t.Fatalf("bit flip changed length: %d", len(data))
	}
	diff := 0
	for i := range data {
		if data[i] != payload[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d corrupted bytes, want exactly 1", diff)
	}
}

func TestFaultFSWriteOrdinalsAreDeterministic(t *testing.T) {
	run := func() []byte {
		dir := t.TempDir()
		ffs := NewFaultFS(OS, NewFaultPlan(99, FaultConfig{ShortWriteRate: 0.5, BitFlipRate: 0.5}))
		var out []byte
		for i := 0; i < 8; i++ {
			p := filepath.Join(dir, "f.bin")
			if err := ffs.WriteFileAtomic(p, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
				t.Fatal(err)
			}
			data, err := OS.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out = AppendFrame(out, data)
		}
		if ffs.Writes() != 8 {
			t.Fatalf("Writes = %d", ffs.Writes())
		}
		return out
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("same seed produced different fault effects")
	}
}

func TestChecksumDistinguishesInputs(t *testing.T) {
	a := Checksum([]byte("a"))
	b := Checksum([]byte("b"))
	if a == b {
		t.Fatal("trivial collision")
	}
	if Checksum([]byte("a")) != a {
		t.Fatal("checksum not stable")
	}
}
