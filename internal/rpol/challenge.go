package rpol

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// challengeKeyLabel domain-separates the challenge key from the master key
// prf.DeriveNonce uses directly, so the nonce a task carries reveals nothing
// about the challenge its commitment will draw.
const challengeKeyLabel = "rpol/challenge-key"

// challenger derives each submission's challenge: a pure function of the
// commitment, keyed by a subkey of the manager's master key. No other
// submission, no verification order and no journal enters it, and a worker
// that cannot evaluate it cannot grind a root that dodges it. It reuses one
// keyed MAC and one input buffer, so it is not safe for concurrent use.
type challenger struct {
	mac hash.Hash
	in  []byte
	sum [sha256.Size]byte
}

// newChallenger keys a challenger with K_c = HMAC(masterKey, challengeKeyLabel).
func newChallenger(masterKey []byte) *challenger {
	kc := hmac.New(sha256.New, masterKey)
	kc.Write([]byte(challengeKeyLabel))
	return &challenger{mac: hmac.New(sha256.New, kc.Sum(nil))}
}

// seed returns the challenge seed of the submission result answers at epoch:
// the first 8 bytes, sign bit cleared, of HMAC(K_c, be64(epoch) ‖
// be64(len(id)) ‖ id ‖ root ‖ be64(n)) over the result's worker id, Merkle
// root and leaf count n. The verifier's sampler, reseeded with it, draws the
// sampled intervals.
func (c *challenger) seed(epoch int, result *EpochResult) int64 {
	in := binary.BigEndian.AppendUint64(c.in[:0], uint64(epoch))
	in = binary.BigEndian.AppendUint64(in, uint64(len(result.WorkerID)))
	in = append(in, result.WorkerID...)
	in = append(in, result.MerkleRoot[:]...)
	c.in = binary.BigEndian.AppendUint64(in, uint64(result.NumCheckpoints))
	c.mac.Reset()
	c.mac.Write(c.in)
	return int64(binary.BigEndian.Uint64(c.mac.Sum(c.sum[:0])) &^ (1 << 63))
}
