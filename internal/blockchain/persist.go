package blockchain

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"rpol/internal/fsio"
)

// chainFile is the on-disk chain encoding.
type chainFile struct {
	Version int         `json:"version"`
	Blocks  []blockJSON `json:"blocks"`
}

// blockJSON is a Block with explicit wire tags.
type blockJSON struct {
	Height      int     `json:"height"`
	Prev        []byte  `json:"prev"`
	TaskID      string  `json:"taskId"`
	Proposer    string  `json:"proposer"`
	ModelDigest []byte  `json:"modelDigest"`
	Accuracy    float64 `json:"accuracy"`
}

// chainFileVersion identifies the chain-file schema.
const chainFileVersion = 1

// ErrCorruptChain is returned when a loaded chain fails validation.
var ErrCorruptChain = errors.New("blockchain: corrupt chain file")

// Save writes the chain (including the genesis block) to path. A saved
// chain re-validates on load, so on-disk tampering is detected.
func (c *Chain) Save(path string) error {
	file := chainFile{Version: chainFileVersion}
	for _, b := range c.blocks {
		file.Blocks = append(file.Blocks, blockJSON{
			Height:      b.Height,
			Prev:        append([]byte(nil), b.Prev[:]...),
			TaskID:      b.TaskID,
			Proposer:    b.Proposer,
			ModelDigest: append([]byte(nil), b.ModelDigest[:]...),
			Accuracy:    b.Accuracy,
		})
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return fmt.Errorf("blockchain save: %w", err)
	}
	// Checksummed frame + atomic rename: a crash mid-save leaves the previous
	// chain file, and any later on-disk bit rot fails the checksum on load.
	if err := fsio.WriteFileAtomic(path, fsio.EncodeFile(data)); err != nil {
		return fmt.Errorf("blockchain save: %w", err)
	}
	return nil
}

// Load reads a chain from path and verifies every link.
func Load(path string) (*Chain, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("blockchain load: %w", err)
	}
	payload, err := fsio.DecodeFile(data)
	if err != nil {
		return nil, fmt.Errorf("blockchain load: %v: %w", err, ErrCorruptChain)
	}
	var file chainFile
	if err := json.Unmarshal(payload, &file); err != nil {
		return nil, fmt.Errorf("blockchain load: %w", err)
	}
	if file.Version != chainFileVersion {
		return nil, fmt.Errorf("version %d: %w", file.Version, ErrCorruptChain)
	}
	if len(file.Blocks) == 0 {
		return nil, fmt.Errorf("no blocks: %w", ErrCorruptChain)
	}
	chain := &Chain{}
	for i, bj := range file.Blocks {
		if len(bj.Prev) != len(Hash{}) || len(bj.ModelDigest) != len(Hash{}) {
			return nil, fmt.Errorf("block %d hash sizes: %w", i, ErrCorruptChain)
		}
		b := Block{
			Height:   bj.Height,
			TaskID:   bj.TaskID,
			Proposer: bj.Proposer,
			Accuracy: bj.Accuracy,
		}
		copy(b.Prev[:], bj.Prev)
		copy(b.ModelDigest[:], bj.ModelDigest)
		chain.blocks = append(chain.blocks, b)
	}
	if err := chain.Verify(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptChain, err)
	}
	return chain, nil
}
