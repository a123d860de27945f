// Package commitment implements the binding commitments pool workers publish
// over their training checkpoints (Sec. V-B). A commitment must satisfy two
// requirements: it covers the proofs of all checkpoints in order, and any
// individual proof can later be verified against it.
//
// Both constructions from the paper are provided:
//
//   - MerkleTree: a Merkle hash tree whose leaves are the checkpoint
//     payloads, yielding O(log n) inclusion proofs (Merkle 1980) — the
//     protocol's commitment, built once by NewMerkleFromLeaves over leaf
//     digests a worker hashes as training produces checkpoints; and
//   - HashList: the ordered list of SHA-256 digests of the checkpoint
//     payloads (the paper's primary construction), kept for the commitment
//     ablation that compares the two.
//
// The worker publishes the commitment *before* the manager reveals its
// sampling decisions — the "commit-and-prove" paradigm that prevents lazy
// workers from training only the sampled steps.
package commitment

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
)

// HashSize is the digest size in bytes (SHA-256).
const HashSize = sha256.Size

// Hash is a single SHA-256 digest.
type Hash [HashSize]byte

// HashLeaf returns the domain-separated digest of a leaf payload.
func HashLeaf(payload []byte) Hash {
	h := sha256.New()
	h.Write([]byte{0x00}) // leaf domain separator
	h.Write(payload)
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

func hashNodes(l, r Hash) Hash {
	h := sha256.New()
	h.Write([]byte{0x01}) // interior-node domain separator
	h.Write(l[:])
	h.Write(r[:])
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// Errors returned by commitment verification.
var (
	ErrEmpty      = errors.New("commitment: no leaves")
	ErrOutOfRange = errors.New("commitment: leaf index out of range")
	ErrMismatch   = errors.New("commitment: payload does not match commitment")
)

// HashList is the paper's primary commitment construction: the ordered
// SHA-256 digests of all checkpoint payloads. The protocol commits with the
// Merkle root; the hash list remains as the comparison arm of the commitment
// ablation, which sizes both constructions.
type HashList struct {
	Leaves []Hash
}

// NewHashList commits to the ordered payloads.
func NewHashList(payloads [][]byte) (*HashList, error) {
	if len(payloads) == 0 {
		return nil, ErrEmpty
	}
	return &HashList{Leaves: hashLeaves(payloads)}, nil
}

// hashLeaves digests every payload.
func hashLeaves(payloads [][]byte) []Hash {
	leaves := make([]Hash, len(payloads))
	for i, payload := range payloads {
		leaves[i] = HashLeaf(payload)
	}
	return leaves
}

// verifyLeaf checks that payload is exactly what was committed at index i.
func (h *HashList) verifyLeaf(i int, payload []byte) error {
	if i < 0 || i >= len(h.Leaves) {
		return fmt.Errorf("index %d of %d: %w", i, len(h.Leaves), ErrOutOfRange)
	}
	if HashLeaf(payload) != h.Leaves[i] {
		return fmt.Errorf("leaf %d: %w", i, ErrMismatch)
	}
	return nil
}

// Size returns the commitment's wire size in bytes.
func (h *HashList) Size() int { return HashSize * len(h.Leaves) }

// MerkleTree is the protocol's commitment: O(log n) inclusion proofs against
// a 32-byte root.
type MerkleTree struct {
	levels [][]Hash // levels[0] = leaves, last level = [root]
}

// MerkleProof is an inclusion path from a leaf to the root.
type MerkleProof struct {
	Index    int
	Siblings []Hash
}

// NewMerkleTree builds the tree over the ordered payloads. Odd nodes are
// paired with themselves.
func NewMerkleTree(payloads [][]byte) (*MerkleTree, error) {
	if len(payloads) == 0 {
		return nil, ErrEmpty
	}
	return NewMerkleFromLeaves(hashLeaves(payloads))
}

// NewMerkleFromLeaves builds the tree over pre-computed leaf digests, for
// callers that hash streamed payloads themselves. The result is identical to
// NewMerkleTree over the same payload bytes.
func NewMerkleFromLeaves(leaves []Hash) (*MerkleTree, error) {
	if len(leaves) == 0 {
		return nil, ErrEmpty
	}
	level := leaves
	levels := [][]Hash{level}
	for len(level) > 1 {
		next := make([]Hash, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next[i/2] = hashNodes(level[i], level[i+1])
			} else {
				next[i/2] = hashNodes(level[i], level[i])
			}
		}
		levels = append(levels, next)
		level = next
	}
	return &MerkleTree{levels: levels}, nil
}

// Len returns the number of leaves.
func (t *MerkleTree) Len() int { return len(t.levels[0]) }

// Root returns the Merkle root.
func (t *MerkleTree) Root() Hash { return t.levels[len(t.levels)-1][0] }

// Prove returns the inclusion proof for leaf i.
func (t *MerkleTree) Prove(i int) (MerkleProof, error) {
	if i < 0 || i >= t.Len() {
		return MerkleProof{}, fmt.Errorf("index %d of %d: %w", i, t.Len(), ErrOutOfRange)
	}
	proof := MerkleProof{Index: i}
	idx := i
	for _, level := range t.levels[:len(t.levels)-1] {
		sib := idx ^ 1
		if sib >= len(level) {
			sib = idx // odd node paired with itself
		}
		proof.Siblings = append(proof.Siblings, level[sib])
		idx /= 2
	}
	return proof, nil
}

// VerifyMerkle checks an inclusion proof of payload against root for a tree
// with the given leaf count. The count is part of the verification contract:
// without it, a proof for leaf i would also verify for any phantom index
// sharing i's left/right path bits (e.g. index 17 with a depth-2 proof for
// index 1), letting a prover claim one committed value at several positions.
func VerifyMerkle(root Hash, leaves int, payload []byte, proof MerkleProof) error {
	if leaves < 1 {
		return fmt.Errorf("tree with %d leaves: %w", leaves, ErrEmpty)
	}
	if proof.Index < 0 || proof.Index >= leaves {
		return fmt.Errorf("index %d of %d: %w", proof.Index, leaves, ErrOutOfRange)
	}
	if len(proof.Siblings) != treeDepth(leaves) {
		return fmt.Errorf("proof depth %d, want %d: %w",
			len(proof.Siblings), treeDepth(leaves), ErrMismatch)
	}
	cur := HashLeaf(payload)
	idx := proof.Index
	for _, sib := range proof.Siblings {
		if idx%2 == 0 {
			cur = hashNodes(cur, sib)
		} else {
			cur = hashNodes(sib, cur)
		}
		idx /= 2
	}
	if !bytes.Equal(cur[:], root[:]) {
		return fmt.Errorf("leaf %d: %w", proof.Index, ErrMismatch)
	}
	return nil
}

// treeDepth returns the proof length of a tree with n leaves (levels below
// the root).
func treeDepth(n int) int {
	depth := 0
	for n > 1 {
		n = (n + 1) / 2
		depth++
	}
	return depth
}

// ProofSize returns the wire size in bytes of a Merkle proof with the given
// number of siblings.
func ProofSize(siblings int) int { return 8 + HashSize*siblings }

// MaxProofSiblings bounds the depth a decoded proof may claim. A tree with
// 2^40 leaves is far beyond any epoch's checkpoint count, so anything deeper
// is malformed rather than merely large.
const MaxProofSiblings = 40

// Size returns the proof's wire size in bytes.
func (p MerkleProof) Size() int { return ProofSize(len(p.Siblings)) }

// AppendEncode appends the proof's wire form — index and sibling count as
// 4-byte big-endian words, then the raw sibling digests root-ward — to dst
// and returns the extended slice. The fixed-width header keeps the encoded
// size equal to ProofSize(len(Siblings)).
func (p MerkleProof) AppendEncode(dst []byte) []byte {
	dst = append(dst,
		byte(p.Index>>24), byte(p.Index>>16), byte(p.Index>>8), byte(p.Index))
	n := len(p.Siblings)
	dst = append(dst, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	for _, s := range p.Siblings {
		dst = append(dst, s[:]...)
	}
	return dst
}

// DecodeProof parses a proof previously produced by AppendEncode. The
// sibling count is bounded by MaxProofSiblings before any allocation, so a
// malformed header cannot force a large leaf slice; the buffer must contain
// exactly the declared siblings.
func DecodeProof(buf []byte) (MerkleProof, error) {
	if len(buf) < 8 {
		return MerkleProof{}, fmt.Errorf("commitment: proof too short (%d bytes)", len(buf))
	}
	idx := int(buf[0])<<24 | int(buf[1])<<16 | int(buf[2])<<8 | int(buf[3])
	n := int(buf[4])<<24 | int(buf[5])<<16 | int(buf[6])<<8 | int(buf[7])
	if n < 0 || n > MaxProofSiblings {
		return MerkleProof{}, fmt.Errorf("commitment: proof depth %d out of range", n)
	}
	if len(buf) != ProofSize(n) {
		return MerkleProof{}, fmt.Errorf("commitment: proof length %d, want %d for depth %d",
			len(buf), ProofSize(n), n)
	}
	proof := MerkleProof{Index: idx, Siblings: make([]Hash, n)}
	for i := range proof.Siblings {
		copy(proof.Siblings[i][:], buf[8+i*HashSize:])
	}
	return proof, nil
}
