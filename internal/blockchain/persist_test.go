package blockchain

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rpol/internal/fsio"
)

func savedChain(t *testing.T) (*Chain, string) {
	t.Helper()
	c := NewChain()
	for i := 1; i <= 3; i++ {
		b := Block{
			Height: i, Prev: c.Tip().HashBlock(),
			TaskID: "t", Proposer: "p", Accuracy: float64(i) / 10,
		}
		b.ModelDigest[0] = byte(i)
		if err := c.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "chain.bin")
	if err := c.save(path); err != nil {
		t.Fatal(err)
	}
	return c, path
}

func TestChainSaveLoadRoundTrip(t *testing.T) {
	orig, path := savedChain(t)
	loaded, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Height() != orig.Height() {
		t.Fatalf("height = %d, want %d", loaded.Height(), orig.Height())
	}
	if loaded.Tip().HashBlock() != orig.Tip().HashBlock() {
		t.Error("tip hash changed across persistence")
	}
	// The loaded chain keeps extending correctly.
	b := Block{Height: 4, Prev: loaded.Tip().HashBlock(), TaskID: "t"}
	if err := loaded.Append(b); err != nil {
		t.Errorf("append after load: %v", err)
	}
}

// frameBody reads the body of the chain file at path.
func frameBody(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := fsio.DecodeFile(data)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), body...)
}

func TestLoadDetectsTampering(t *testing.T) {
	orig, path := savedChain(t)
	// Rewrite block 1's accuracy and save it under a fresh, valid checksum:
	// only the chain's own links can catch it.
	tampered := &Chain{blocks: append([]Block(nil), orig.blocks...)}
	tampered.blocks[1].Accuracy = 0.9
	if err := tampered.save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path); !errors.Is(err, ErrCorruptChain) {
		t.Errorf("tampered chain loaded: %v", err)
	}
	// Bit rot under the checksum is caught before any link is checked.
	if err := orig.save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path); !errors.Is(err, fsio.ErrChecksum) || !errors.Is(err, ErrCorruptChain) {
		t.Errorf("bit-rotted chain: %v", err)
	}
}

func TestLoadValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := load(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("missing file loaded")
	}
	_, saved := savedChain(t)
	body := frameBody(t, saved)
	otherVersion := append([]byte(nil), body...)
	otherVersion[1]++
	cases := []struct {
		name    string
		file    []byte
		version bool // the refusal is also fsio.ErrVersion
	}{
		{"parent JSON", []byte(`{"version":1,"blocks":[]}`), true},
		{"JSON in a frame", fsio.EncodeFile([]byte(`{"version":1,"blocks":[]}`)), true},
		{"another body version", fsio.EncodeFile(otherVersion), true},
		{"truncated body", fsio.EncodeFile(body[:len(body)-3]), true},
		{"trailing bytes", fsio.EncodeFile(append(append([]byte(nil), body...), 0)), true},
		{"count beyond the body", fsio.EncodeFile(binary.AppendUvarint(fsio.AppendBodyHeader(nil, chainKind), 1<<40)), true},
		{"empty chain", fsio.EncodeFile(fsio.AppendLen(fsio.AppendBodyHeader(nil, chainKind), 0)), false},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, "chain.bin")
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := load(path)
		if !errors.Is(err, ErrCorruptChain) || errors.Is(err, fsio.ErrVersion) != tc.version {
			t.Errorf("%s: err = %v, want ErrCorruptChain (fsio.ErrVersion %v)", tc.name, err, tc.version)
		}
	}
}
