package fsio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
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

// TestReadFrameDetectsBitFlips holds the frame to what its guarded length
// and CRC pair guarantee: read whole, a frame with any single flipped bit, or
// any burst of up to 32 flipped bits, anywhere — length, complement, payload
// or check word — is ErrChecksum, never a torn frame and never accepted. It
// runs on a short frame and on a 44 KB one, a checkpoint's size; bursts of
// every length start at every bit of the short frame, and at every bit of
// the long one with the length cycling through 2…32.
func TestReadFrameDetectsBitFlips(t *testing.T) {
	long := make([]byte, 44_000)
	for i := range long {
		long[i] = byte(i*131 + i>>8)
	}
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	// burst flips n bits starting at bit pos of frame — the first and last
	// always, those between at random — in place; a second call undoes it.
	burst := func(frame []byte, pos, n int, pattern uint64) {
		pattern |= 1 | 1<<(n-1)
		for k := 0; k < n; k++ {
			if p := pos + k; pattern>>k&1 == 1 && p < 8*len(frame) {
				frame[p/8] ^= 1 << (p % 8)
			}
		}
	}
	check := func(t *testing.T, frame []byte, what string) {
		t.Helper()
		if _, _, err := ReadFrame(frame); !errors.Is(err, ErrChecksum) {
			t.Fatalf("%s: err = %v, want ErrChecksum", what, err)
		}
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{{"short", []byte("bit flip victim")}, {"44KB", long}} {
		t.Run(tc.name, func(t *testing.T) {
			frame := AppendFrame(nil, tc.payload)
			bits := 8 * len(frame)
			stride := 1
			if testing.Short() && len(frame) > 1000 {
				stride = 7
			}
			for pos := 0; pos < bits; pos += stride {
				burst(frame, pos, 1, 0)
				check(t, frame, fmt.Sprintf("bit %d", pos))
				burst(frame, pos, 1, 0)

				lengths := []int{2 + pos%31}
				if len(frame) < 1000 {
					lengths = lengths[:0]
					for n := 2; n <= 32; n++ {
						lengths = append(lengths, n)
					}
				}
				for _, n := range lengths {
					if pos+n > bits {
						continue
					}
					pattern := next()
					burst(frame, pos, n, pattern)
					check(t, frame, fmt.Sprintf("%d-bit burst at bit %d", n, pos))
					burst(frame, pos, n, pattern)
				}
			}
			if got, _, err := ReadFrame(frame); err != nil || !bytes.Equal(got, tc.payload) {
				t.Fatalf("the restored frame does not read back (%v)", err)
			}
		})
	}
}

func TestEncodeDecodeFile(t *testing.T) {
	payload := []byte("a state snapshot")
	enc := EncodeFile(payload)
	got, err := DecodeFile(enc)
	if err != nil {
		t.Fatalf("DecodeFile: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}
	if len(enc) != FileOverhead+len(payload) {
		t.Fatalf("%d encoded bytes for a %d-byte payload, want %d more", len(enc), len(payload), FileOverhead)
	}

	// Files of another format — the pre-fsio JSON, the parent's version-1
	// header, this header with a flipped bit — are refused as such.
	parent := append([]byte("\x93RPoLfs1"), enc[headerSize:]...)
	flipped := append([]byte(nil), enc...)
	flipped[6] ^= 0x20
	for _, raw := range [][]byte{[]byte(`{"version":1}`), parent, flipped} {
		if got, err := DecodeFile(raw); !errors.Is(err, ErrVersion) || got != nil {
			t.Fatalf("foreign %q: payload %q, err = %v", raw, got, err)
		}
	}
	// A file that stops inside the header is torn.
	for _, raw := range [][]byte{nil, enc[:4]} {
		if got, err := DecodeFile(raw); !errors.Is(err, ErrTornFrame) || got != nil {
			t.Fatalf("torn %q: payload %q, err = %v", raw, got, err)
		}
	}

	// A flipped payload bit fails the checksum.
	bad := append([]byte(nil), enc...)
	bad[len(bad)/2] ^= 0x10
	if _, err := DecodeFile(bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted file: err = %v", err)
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
	if !ffs.down {
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
	if !ffs.down || ffs.Writes() != 2 {
		t.Fatalf("down=%t after %d ordinals", ffs.down, ffs.Writes())
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
	// The two halves are the standard CRC-32C and CRC-32/IEEE check values.
	if got := Checksum([]byte("123456789")); got != 0xE3069283_CBF43926 {
		t.Fatalf("Checksum(\"123456789\") = %#x, want CRC-32C e3069283 over CRC-32 cbf43926", got)
	}
}

func TestHeaderAndSplitHeader(t *testing.T) {
	h := Header("wl")
	if len(h) != headerSize || h != "\x93RPoLwl3" {
		t.Fatalf("Header(wl) = %q", h)
	}
	data := append([]byte(h), 1, 2)
	if rest, err := SplitHeader(data, h); err != nil || !bytes.Equal(rest, []byte{1, 2}) {
		t.Fatalf("SplitHeader = %v, %v", rest, err)
	}
	for cut := 0; cut < len(h); cut++ {
		if _, err := SplitHeader(data[:cut], h); !errors.Is(err, ErrTornFrame) {
			t.Fatalf("header cut at %d: err = %v, want ErrTornFrame", cut, err)
		}
	}
	for bit := 0; bit < 8*len(h); bit++ {
		flipped := append([]byte(nil), data...)
		flipped[bit/8] ^= 1 << (bit % 8)
		for _, n := range []int{bit/8 + 1, len(flipped)} {
			if _, err := SplitHeader(flipped[:n], h); !errors.Is(err, ErrVersion) {
				t.Fatalf("bit %d flipped, %d bytes: err = %v, want ErrVersion", bit, n, err)
			}
		}
	}
}

func TestBodyCodec(t *testing.T) {
	body := AppendBodyHeader(nil, 'K')
	body = AppendInt(body, -5)
	body = AppendUint64(body, 1<<63)
	body = AppendFloat(body, 0.1)
	body = AppendString(body, "worker")
	body = AppendBlob(body, []byte{1, 2, 3})
	body = AppendLen(body, 2)
	body = append(body, 9, 9)

	r := ReadBody(body, 'K')
	i, u, f, s, b, n, rest := r.Int(), r.Uint64(), r.Float(), r.Str(), r.Blob(), r.Len(1), r.Rest()
	if err := r.Done(); err != nil || i != -5 || u != 1<<63 || f != 0.1 || s != "worker" || !bytes.Equal(b, []byte{1, 2, 3}) || n != 2 || !bytes.Equal(rest, []byte{9, 9}) {
		t.Fatalf("decoded %v %v %v %q %v %v %v, %v", i, u, f, s, b, n, rest, err)
	}

	// Another kind, version or magic, a truncation, a count beyond the body
	// and trailing bytes are all ErrVersion.
	wrongVersion := append([]byte(nil), body...)
	wrongVersion[1]++
	overCount := binary.AppendUvarint(AppendBodyHeader(nil, 'K'), 1<<40)
	for name, tc := range map[string]struct {
		body []byte
		kind byte
		read func(*BodyReader)
	}{
		"kind":      {body, 'L', func(r *BodyReader) {}},
		"version":   {wrongVersion, 'K', func(r *BodyReader) {}},
		"magic":     {[]byte(`{"k":1}`), 'K', func(r *BodyReader) {}},
		"empty":     {nil, 'K', func(r *BodyReader) {}},
		"truncated": {body[:6], 'K', func(r *BodyReader) { r.Int(); r.Uint64() }},
		"count":     {overCount, 'K', func(r *BodyReader) { r.Len(1) }},
		"trailing":  {body, 'K', func(r *BodyReader) { r.Int() }},
	} {
		r := ReadBody(tc.body, tc.kind)
		tc.read(&r)
		if err := r.Done(); !errors.Is(err, ErrVersion) {
			t.Errorf("%s: err = %v, want ErrVersion", name, err)
		}
	}

	// An integer beyond int's range is refused where int has 32 bits, never
	// wrapped; where it has 64, it decodes.
	big := AppendInt(AppendBodyHeader(nil, 'K'), 1<<40)
	r = ReadBody(big, 'K')
	v, err := r.Int(), r.Done()
	if strconv.IntSize == 32 {
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("2^40 as a 32-bit int: %d, %v", v, err)
		}
	} else if err != nil || int64(v) != 1<<40 {
		t.Fatalf("2^40 as a 64-bit int: %d, %v", v, err)
	}
}
