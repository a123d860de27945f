package blockchain

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"

	"rpol/internal/amlayer"
	"rpol/internal/dataset"
	"rpol/internal/nn"
	"rpol/internal/tensor"
)

// Candidate is one consensus node's proposal for a round: a trained model
// claimed by a proposer address, signed by the proposer's wallet.
type Candidate struct {
	Proposer string
	Net      *nn.Network
	PubKey   []byte
	Sig      []byte
}

// ModelDigest hashes a network's trainable parameters.
func ModelDigest(net *nn.Network) Hash {
	sum := sha256.Sum256(net.ParamVector().Encode())
	return Hash(sum)
}

// SignCandidate produces the signature binding (proposer, model digest).
func SignCandidate(w *Wallet, net *nn.Network) []byte {
	digest := ModelDigest(net)
	return w.Sign(digest[:])
}

// Round collects candidates for one task and elects a winner once the test
// set is released. Before MinProposals candidates have arrived, the test
// set stays sealed — this is the mechanism that stops miners from training
// directly on the test data (Sec. III-A).
type Round struct {
	Task      Task
	AMLConfig amlayer.Config
	// AMLDepth selects the AMLayer variant consensus verifies: 0 checks a
	// single residual block (amlayer.VerifyDense), ≥1 checks a stacked
	// AMLayer of that depth (amlayer.VerifyDenseStack).
	AMLDepth   int
	candidates []Candidate
}

// Errors returned by consensus operations.
var (
	ErrSealed      = errors.New("blockchain: test set still sealed")
	ErrNoCandidate = errors.New("blockchain: no valid candidate")
)

// NewRound starts a consensus round for the task.
func NewRound(task Task, amlCfg amlayer.Config) (*Round, error) {
	if err := task.Validate(); err != nil {
		return nil, err
	}
	return &Round{Task: task, AMLConfig: amlCfg}, nil
}

// Propose submits a candidate. Structural checks (signature, address
// binding) happen immediately; accuracy evaluation waits for the reveal.
func (r *Round) Propose(c Candidate) error {
	if c.Net == nil {
		return errors.New("blockchain: candidate without model")
	}
	digest := ModelDigest(c.Net)
	if err := VerifySignature(c.Proposer, c.PubKey, digest[:], c.Sig); err != nil {
		return fmt.Errorf("candidate from %s: %w", c.Proposer, err)
	}
	r.candidates = append(r.candidates, c)
	return nil
}

// TestSetReleased reports whether enough proposals arrived to unseal the
// test set.
func (r *Round) TestSetReleased() bool {
	return len(r.candidates) >= r.Task.MinProposals
}

// Outcome is the result of deciding a round.
type Outcome struct {
	Winner   Candidate
	Accuracy float64
	Block    Block
	// Rejected lists proposer addresses whose candidates failed AMLayer
	// ownership verification — stolen models (Sec. V-A).
	Rejected []string
}

// Decide evaluates all candidates on the (now released) test set, discards
// any whose AMLayer does not encode the proposer's address, and elects the
// highest test accuracy. The winning block extends the chain tip.
func (r *Round) Decide(test *dataset.Dataset, chain *Chain) (*Outcome, error) {
	if !r.TestSetReleased() {
		return nil, fmt.Errorf("%d of %d proposals: %w", len(r.candidates), r.Task.MinProposals, ErrSealed)
	}
	if test == nil || test.Len() == 0 {
		return nil, errors.New("blockchain: empty test set")
	}
	xs := make([]tensor.Vector, test.Len())
	labels := make([]int, test.Len())
	for i, ex := range test.Examples {
		xs[i] = ex.Features
		labels[i] = ex.Label
	}

	out := &Outcome{Accuracy: -1}
	// Deterministic evaluation order regardless of proposal arrival.
	ordered := append([]Candidate(nil), r.candidates...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Proposer < ordered[j].Proposer })
	for _, c := range ordered {
		// Consensus nodes regenerate the AMLayer from the proposer's address
		// and check the model embeds it (Sec. V-A).
		var ownerErr error
		if r.AMLDepth > 0 {
			ownerErr = amlayer.VerifyDenseStack(c.Net, c.Proposer, r.AMLDepth, r.AMLConfig)
		} else {
			ownerErr = amlayer.VerifyDense(c.Net, c.Proposer, r.AMLConfig)
		}
		if ownerErr != nil {
			out.Rejected = append(out.Rejected, c.Proposer)
			continue
		}
		acc, err := c.Net.Accuracy(xs, labels)
		if err != nil {
			return nil, fmt.Errorf("evaluate candidate %s: %w", c.Proposer, err)
		}
		if acc > out.Accuracy {
			out.Accuracy = acc
			out.Winner = c
		}
	}
	if out.Accuracy < 0 {
		return nil, ErrNoCandidate
	}
	tip := chain.Tip()
	out.Block = Block{
		Height:      tip.Height + 1,
		Prev:        tip.HashBlock(),
		TaskID:      r.Task.ID,
		Proposer:    out.Winner.Proposer,
		ModelDigest: ModelDigest(out.Winner.Net),
		Accuracy:    out.Accuracy,
	}
	if err := chain.Append(out.Block); err != nil {
		return nil, err
	}
	return out, nil
}
