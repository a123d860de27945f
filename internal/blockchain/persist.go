package blockchain

import (
	"errors"
	"fmt"
	"os"

	"rpol/internal/fsio"
)

// chainKind is the body kind byte of a chain snapshot. The body is the block
// count, then per block its height, 32-byte previous hash, task ID,
// proposer, 32-byte model digest and accuracy; fsio's body header carries the
// format version.
const chainKind = 'B'

// ErrCorruptChain is returned when a loaded chain fails validation.
var ErrCorruptChain = errors.New("blockchain: corrupt chain file")

// save writes the chain (including the genesis block) to path. A saved
// chain re-validates on load, so on-disk tampering is detected.
func (c *Chain) save(path string) error {
	body := fsio.AppendBodyHeader(nil, chainKind)
	body = fsio.AppendLen(body, len(c.blocks))
	for _, b := range c.blocks {
		body = fsio.AppendInt(body, int64(b.Height))
		body = append(body, b.Prev[:]...)
		body = fsio.AppendString(body, b.TaskID)
		body = fsio.AppendString(body, b.Proposer)
		body = append(body, b.ModelDigest[:]...)
		body = fsio.AppendFloat(body, b.Accuracy)
	}
	// Checksummed frame + atomic rename: a crash mid-save leaves the previous
	// chain file, and any later on-disk bit rot fails the checksum on load.
	if err := fsio.WriteFileAtomic(path, fsio.EncodeFile(body)); err != nil {
		return fmt.Errorf("blockchain save: %w", err)
	}
	return nil
}

// blockSize is the fewest body bytes one block takes.
const blockSize = 1 + len(Hash{}) + 1 + 1 + len(Hash{}) + 8

// load reads a chain from path and verifies every link. A file of another
// format is both fsio.ErrVersion and ErrCorruptChain.
func load(path string) (*Chain, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("blockchain load: %w", err)
	}
	body, err := fsio.DecodeFile(data)
	if err != nil {
		return nil, fmt.Errorf("blockchain load: %w: %w", err, ErrCorruptChain)
	}
	r := fsio.ReadBody(body, chainKind)
	chain := &Chain{blocks: make([]Block, r.Len(blockSize))}
	for i := range chain.blocks {
		b := &chain.blocks[i]
		b.Height = r.Int()
		copy(b.Prev[:], r.Bytes(len(Hash{})))
		b.TaskID = r.Str()
		b.Proposer = r.Str()
		copy(b.ModelDigest[:], r.Bytes(len(Hash{})))
		b.Accuracy = r.Float()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("blockchain load: %w: %w", err, ErrCorruptChain)
	}
	if len(chain.blocks) == 0 {
		return nil, fmt.Errorf("no blocks: %w", ErrCorruptChain)
	}
	if err := chain.Verify(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptChain, err)
	}
	return chain, nil
}
