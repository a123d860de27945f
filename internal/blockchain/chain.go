package blockchain

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Hash is a 32-byte block or model digest.
type Hash [32]byte

// Task is one DNN training task published in the task pool. Miners pull a
// task, train a model for it, and propose blocks; the test set identified by
// TestSeed is withheld until enough proposals arrive (Sec. III-A).
type Task struct {
	ID string
	// ModelSpec names the architecture/dataset pair (a modelzoo key).
	ModelSpec string
	// TargetAccuracy is the difficulty knob: the accuracy that ends the
	// round early.
	TargetAccuracy float64
	// MinProposals is the number of candidate models required before the
	// test set is published.
	MinProposals int
	// Reward is the mining reward for the winning block.
	Reward float64
}

// Validate checks the task's parameters.
func (t Task) Validate() error {
	switch {
	case t.ID == "":
		return errors.New("blockchain: task needs an id")
	case t.ModelSpec == "":
		return errors.New("blockchain: task needs a model spec")
	case t.MinProposals < 1:
		return errors.New("blockchain: task needs at least one proposal")
	case t.Reward <= 0:
		return errors.New("blockchain: task needs a positive reward")
	case t.TargetAccuracy < 0 || t.TargetAccuracy > 1:
		return errors.New("blockchain: target accuracy outside [0, 1]")
	}
	return nil
}

// Block is one agreed block: it carries the winning model's digest, its
// measured test accuracy, and the proposer's address (which the AMLayer
// inside the model also encodes — consensus checks both).
type Block struct {
	Height      int
	Prev        Hash
	TaskID      string
	Proposer    string
	ModelDigest Hash
	Accuracy    float64
}

// HashBlock returns the block's digest.
func (b Block) HashBlock() Hash {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(b.Height))
	h.Write(buf[:])
	h.Write(b.Prev[:])
	h.Write([]byte(b.TaskID))
	h.Write([]byte{0})
	h.Write([]byte(b.Proposer))
	h.Write([]byte{0})
	h.Write(b.ModelDigest[:])
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(b.Accuracy))
	h.Write(buf[:])
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// ErrBadLink is returned when a block does not extend the chain's tip.
var ErrBadLink = errors.New("blockchain: block does not extend the tip")

// Chain is an append-only chain of agreed blocks starting from a genesis
// block at height 0.
type Chain struct {
	blocks []Block
}

// NewChain starts a chain with a genesis block.
func NewChain() *Chain {
	genesis := Block{Height: 0, TaskID: "genesis"}
	return &Chain{blocks: []Block{genesis}}
}

// Height returns the tip height.
func (c *Chain) Height() int { return len(c.blocks) - 1 }

// Tip returns the latest block.
func (c *Chain) Tip() Block { return c.blocks[len(c.blocks)-1] }

// block returns the block at the given height.
func (c *Chain) block(height int) (Block, error) {
	if height < 0 || height >= len(c.blocks) {
		return Block{}, fmt.Errorf("blockchain: height %d of %d", height, len(c.blocks))
	}
	return c.blocks[height], nil
}

// Append adds a block after validating its linkage.
func (c *Chain) Append(b Block) error {
	tip := c.Tip()
	if b.Height != tip.Height+1 {
		return fmt.Errorf("height %d after tip %d: %w", b.Height, tip.Height, ErrBadLink)
	}
	if b.Prev != tip.HashBlock() {
		return fmt.Errorf("prev hash mismatch at height %d: %w", b.Height, ErrBadLink)
	}
	c.blocks = append(c.blocks, b)
	return nil
}

// Verify re-checks every link in the chain; a tampered historic block breaks
// all subsequent links (the double-spend protection RPoL inherits from the
// underlying PoUW chain).
func (c *Chain) Verify() error {
	for i := 1; i < len(c.blocks); i++ {
		if c.blocks[i].Prev != c.blocks[i-1].HashBlock() {
			return fmt.Errorf("link %d→%d broken: %w", i-1, i, ErrBadLink)
		}
		if c.blocks[i].Height != i {
			return fmt.Errorf("height %d at index %d: %w", c.blocks[i].Height, i, ErrBadLink)
		}
	}
	return nil
}

// taskPool is the queue of published training tasks (stage A of Fig. 2).
type taskPool struct {
	tasks []Task
}

// publish validates and enqueues a task.
func (p *taskPool) publish(t Task) error {
	if err := t.Validate(); err != nil {
		return err
	}
	p.tasks = append(p.tasks, t)
	return nil
}

// pull dequeues the oldest task; ok is false when the pool is empty.
func (p *taskPool) pull() (Task, bool) {
	if len(p.tasks) == 0 {
		return Task{}, false
	}
	t := p.tasks[0]
	p.tasks = p.tasks[1:]
	return t, true
}

// len returns the number of queued tasks.
func (p *taskPool) len() int { return len(p.tasks) }
