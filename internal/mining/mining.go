// Package mining runs the paper's full workflow (Fig. 2) end to end as a
// library: consensus nodes (mining pools) pull a DNN training task from the
// task pool, train collaboratively under RPoL verification until the target
// accuracy or an epoch budget, propose their models, and the consensus
// round — with the test set released only after enough proposals — elects
// the best generalizer, appends the block, and settles the winner's mining
// reward to its verified workers through the escrow.
package mining

import (
	"errors"
	"fmt"
	"io"

	"rpol/internal/amlayer"
	"rpol/internal/blockchain"
	"rpol/internal/dataset"
	"rpol/internal/obs"
	"rpol/internal/pool"
)

// Contender is one consensus node in the competition: a mining pool with
// its wallet.
type Contender struct {
	// Name labels the contender in results.
	Name string
	// Pool configures the contender's mining pool; ManagerAddress is
	// overwritten with the wallet's address.
	Pool pool.Config
	// ManagerCut is the pool fee withheld from the reward at settlement.
	ManagerCut float64
}

// CompetitionConfig describes one mined block's worth of competition.
type CompetitionConfig struct {
	// Task is the published training task. Its TargetAccuracy ends a
	// contender's training early; MinProposals gates the test-set release.
	Task blockchain.Task
	// MaxEpochs bounds each contender's training (the block time limit).
	MaxEpochs int
	// AMLDepth is the AMLayer stack depth contenders encode their address
	// with (must match the pool's; 3 by default).
	AMLDepth int
	// Entropy sources wallet keys (crypto/rand.Reader in production;
	// deterministic readers in tests).
	Entropy io.Reader
	// Obs receives the competition's metrics and spans. Nil falls back to
	// the process default observer (and is forwarded into each contender's
	// pool config, unless the contender set its own).
	Obs *obs.Observer
}

// ContenderResult is one pool's outcome.
type ContenderResult struct {
	Name          string
	Address       string
	EpochsRun     int
	FinalAccuracy float64
	// Detected tallies adversarial submissions the pool's own verification
	// rejected during training.
	Detected int
}

// Result is the competition's outcome.
type Result struct {
	Contenders []ContenderResult
	// Winner names the contender whose block was agreed.
	Winner string
	// Block is the appended block.
	Block blockchain.Block
	// ManagerReward and Payouts are the winner's escrow settlement.
	ManagerReward float64
	Payouts       []blockchain.Payout
}

// Errors returned by competitions.
var ErrNoContenders = errors.New("mining: need at least one contender")

// Run executes the competition on the given chain.
func Run(cfg CompetitionConfig, contenders []Contender, chain *blockchain.Chain) (*Result, error) {
	if len(contenders) == 0 {
		return nil, ErrNoContenders
	}
	if cfg.MaxEpochs < 1 {
		return nil, errors.New("mining: need a positive epoch budget")
	}
	if err := cfg.Task.Validate(); err != nil {
		return nil, err
	}
	depth := cfg.AMLDepth
	if depth <= 0 {
		depth = 3
	}

	round, err := blockchain.NewRound(cfg.Task, amlayer.DefaultConfig())
	if err != nil {
		return nil, err
	}
	round.AMLDepth = depth

	observer := cfg.Obs.OrDefault()
	compSpan := observer.Start(nil, "mining.competition",
		obs.String("task", cfg.Task.ModelSpec), obs.Int("contenders", int64(len(contenders))))
	defer compSpan.End()

	res := &Result{}
	var test *dataset.Dataset
	// settlers maps a contender's address to its pool for reward
	// settlement after the round decides.
	settlers := make(map[string]settler, len(contenders))
	for _, c := range contenders {
		wallet, err := blockchain.NewWallet(cfg.Entropy)
		if err != nil {
			return nil, fmt.Errorf("mining %s: %w", c.Name, err)
		}
		poolCfg := c.Pool
		poolCfg.TaskName = cfg.Task.ModelSpec
		poolCfg.UseAMLayer = true
		poolCfg.ManagerAddress = wallet.Address()
		if poolCfg.Obs == nil {
			poolCfg.Obs = observer
		}
		p, err := pool.New(poolCfg)
		if err != nil {
			return nil, fmt.Errorf("mining %s: %w", c.Name, err)
		}

		contSpan := observer.Start(compSpan, "mining.contender", obs.String("name", c.Name))
		cr := ContenderResult{Name: c.Name, Address: wallet.Address()}
		for cr.EpochsRun < cfg.MaxEpochs {
			stats, err := p.RunEpoch()
			if err != nil {
				contSpan.End(obs.String("error", err.Error()))
				return nil, fmt.Errorf("mining %s: %w", c.Name, err)
			}
			cr.EpochsRun++
			cr.Detected += stats.DetectedAdversaries
			cr.FinalAccuracy = stats.TestAccuracy
			if stats.TestAccuracy >= cfg.Task.TargetAccuracy {
				break
			}
		}
		contSpan.End(obs.Int("epochs", int64(cr.EpochsRun)),
			obs.Float("accuracy", cr.FinalAccuracy), obs.Int("detected", int64(cr.Detected)))
		res.Contenders = append(res.Contenders, cr)

		candidateNet, err := p.CandidateNet()
		if err != nil {
			return nil, fmt.Errorf("mining %s: %w", c.Name, err)
		}
		if err := round.Propose(blockchain.Candidate{
			Proposer: wallet.Address(),
			Net:      candidateNet,
			PubKey:   wallet.PublicKey(),
			Sig:      blockchain.SignCandidate(wallet, candidateNet),
		}); err != nil {
			return nil, fmt.Errorf("mining %s: %w", c.Name, err)
		}

		// All contenders train the same published task (same proxy seed),
		// so any contender's held-out split is the canonical test set.
		if test == nil {
			xs, ys := p.TestSet()
			test = &dataset.Dataset{NumClasses: p.Spec().ProxyClasses, Dim: p.Spec().ProxyDim}
			for i := range xs {
				test.Examples = append(test.Examples, dataset.Example{Features: xs[i], Label: ys[i]})
			}
		}

		settlers[wallet.Address()] = settler{pool: p, cut: c.ManagerCut}
	}

	outcome, err := round.Decide(test, chain)
	if err != nil {
		return nil, err
	}
	res.Block = outcome.Block
	for _, cr := range res.Contenders {
		if cr.Address == outcome.Winner.Proposer {
			res.Winner = cr.Name
		}
	}

	// Settle the mining reward through the winner's escrow: one credit per
	// accepted epoch per worker.
	settleSpan := observer.Start(compSpan, "mining.settlement", obs.String("winner", res.Winner))
	defer func() {
		settleSpan.End(obs.Float("managerReward", res.ManagerReward),
			obs.Int("payouts", int64(len(res.Payouts))))
	}()
	s, ok := settlers[outcome.Winner.Proposer]
	if !ok {
		return nil, errors.New("mining: winner has no settler")
	}
	escrow, err := blockchain.NewEscrow(s.cut)
	if err != nil {
		return nil, err
	}
	if err := escrow.Deposit(cfg.Task.Reward); err != nil {
		return nil, err
	}
	for id, reward := range s.pool.Rewards() {
		if reward > 0 {
			if err := escrow.Credit(id, reward); err != nil {
				return nil, err
			}
		}
	}
	res.ManagerReward, res.Payouts, err = escrow.Settle()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// settler pairs a pool with its fee for reward settlement.
type settler struct {
	pool *pool.Pool
	cut  float64
}
