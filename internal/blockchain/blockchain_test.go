package blockchain

import (
	"errors"
	"math"
	"testing"
)

// detRand is a deterministic entropy source for test wallets.
type detRand struct{ state uint64 }

func (d *detRand) Read(p []byte) (int, error) {
	for i := range p {
		d.state = d.state*6364136223846793005 + 1442695040888963407
		p[i] = byte(d.state >> 56)
	}
	return len(p), nil
}

func testWallet(t *testing.T, seed uint64) *Wallet {
	t.Helper()
	w, err := NewWallet(&detRand{state: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWalletAddressStable(t *testing.T) {
	w := testWallet(t, 1)
	if len(w.Address()) != 40 {
		t.Errorf("address length = %d", len(w.Address()))
	}
	if w.Address() != w.Address() {
		t.Error("address must be stable")
	}
	w2 := testWallet(t, 2)
	if w.Address() == w2.Address() {
		t.Error("different wallets must have different addresses")
	}
}

func TestSignVerify(t *testing.T) {
	w := testWallet(t, 3)
	msg := []byte("block digest")
	sig := w.Sign(msg)
	if err := VerifySignature(w.Address(), w.PublicKey(), msg, sig); err != nil {
		t.Errorf("genuine signature rejected: %v", err)
	}
	if err := VerifySignature(w.Address(), w.PublicKey(), []byte("other"), sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("forged message: err = %v", err)
	}
	other := testWallet(t, 4)
	if err := VerifySignature(other.Address(), w.PublicKey(), msg, sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("address mismatch: err = %v", err)
	}
}

func TestTaskValidate(t *testing.T) {
	good := Task{ID: "t", ModelSpec: "resnet18-cifar10", MinProposals: 2, Reward: 1, TargetAccuracy: 0.9}
	if err := good.Validate(); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
	bads := []Task{
		{ModelSpec: "m", MinProposals: 1, Reward: 1},
		{ID: "t", MinProposals: 1, Reward: 1},
		{ID: "t", ModelSpec: "m", MinProposals: 0, Reward: 1},
		{ID: "t", ModelSpec: "m", MinProposals: 1, Reward: 0},
		{ID: "t", ModelSpec: "m", MinProposals: 1, Reward: 1, TargetAccuracy: 1.5},
	}
	for i, b := range bads {
		if err := b.Validate(); err == nil {
			t.Errorf("bad task %d accepted", i)
		}
	}
}

func TestChainAppendVerify(t *testing.T) {
	c := NewChain()
	if c.Height() != 0 {
		t.Fatalf("genesis height = %d", c.Height())
	}
	b1 := Block{Height: 1, Prev: c.Tip().HashBlock(), TaskID: "t1", Proposer: "a", Accuracy: 0.8}
	if err := c.Append(b1); err != nil {
		t.Fatal(err)
	}
	b2 := Block{Height: 2, Prev: c.Tip().HashBlock(), TaskID: "t2", Proposer: "b", Accuracy: 0.9}
	if err := c.Append(b2); err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
	got, err := c.block(1)
	if err != nil || got.TaskID != "t1" {
		t.Errorf("Block(1) = %+v, %v", got, err)
	}
	if _, err := c.block(99); err == nil {
		t.Error("want error for out-of-range height")
	}
}

func TestChainRejectsBadLinks(t *testing.T) {
	c := NewChain()
	wrongHeight := Block{Height: 5, Prev: c.Tip().HashBlock()}
	if err := c.Append(wrongHeight); !errors.Is(err, ErrBadLink) {
		t.Errorf("err = %v", err)
	}
	wrongPrev := Block{Height: 1, Prev: Hash{1, 2, 3}}
	if err := c.Append(wrongPrev); !errors.Is(err, ErrBadLink) {
		t.Errorf("err = %v", err)
	}
}

func TestChainDetectsTampering(t *testing.T) {
	c := NewChain()
	for i := 1; i <= 3; i++ {
		b := Block{Height: i, Prev: c.Tip().HashBlock(), TaskID: "t", Accuracy: float64(i) / 10}
		if err := c.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	// Tamper with a historic block (the double-spend attempt).
	c.blocks[1].Accuracy = 0.99
	if err := c.Verify(); !errors.Is(err, ErrBadLink) {
		t.Errorf("tampered chain verified: %v", err)
	}
}

func TestBlockHashSensitivity(t *testing.T) {
	b := Block{Height: 1, TaskID: "t", Proposer: "a", Accuracy: 0.5}
	h1 := b.HashBlock()
	b.Accuracy = math.Nextafter(0.5, 1)
	if b.HashBlock() == h1 {
		t.Error("hash must change with accuracy")
	}
	b.Accuracy = 0.5
	b.Proposer = "b"
	if b.HashBlock() == h1 {
		t.Error("hash must change with proposer")
	}
}

func TestTaskPoolFIFO(t *testing.T) {
	var p taskPool
	if _, ok := p.pull(); ok {
		t.Error("empty pool must not yield tasks")
	}
	t1 := Task{ID: "t1", ModelSpec: "m", MinProposals: 1, Reward: 1}
	t2 := Task{ID: "t2", ModelSpec: "m", MinProposals: 1, Reward: 1}
	if err := p.publish(t1); err != nil {
		t.Fatal(err)
	}
	if err := p.publish(t2); err != nil {
		t.Fatal(err)
	}
	if p.len() != 2 {
		t.Errorf("Len = %d", p.len())
	}
	got, ok := p.pull()
	if !ok || got.ID != "t1" {
		t.Errorf("Pull = %+v, %v", got, ok)
	}
	if err := p.publish(Task{}); err == nil {
		t.Error("invalid task accepted")
	}
}

func TestEscrowProportionalSettlement(t *testing.T) {
	e, err := NewEscrow(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Deposit(100); err != nil {
		t.Fatal(err)
	}
	if err := e.Credit("w1", 3); err != nil {
		t.Fatal(err)
	}
	if err := e.Credit("w2", 1); err != nil {
		t.Fatal(err)
	}
	mgr, payouts, err := e.Settle()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mgr-10) > 1e-9 {
		t.Errorf("manager cut = %v", mgr)
	}
	if len(payouts) != 2 {
		t.Fatalf("payouts = %+v", payouts)
	}
	want := map[string]float64{"w1": 67.5, "w2": 22.5}
	var total float64
	for _, p := range payouts {
		if math.Abs(p.Amount-want[p.WorkerID]) > 1e-9 {
			t.Errorf("%s payout = %v, want %v", p.WorkerID, p.Amount, want[p.WorkerID])
		}
		total += p.Amount
	}
	if math.Abs(total+mgr-100) > 1e-9 {
		t.Errorf("settlement loses funds: %v", total+mgr)
	}
}

func TestEscrowOneShot(t *testing.T) {
	e, err := NewEscrow(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Deposit(10); err != nil {
		t.Fatal(err)
	}
	if err := e.Credit("w", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Settle(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Settle(); !errors.Is(err, ErrEscrowSettled) {
		t.Errorf("double settle: err = %v", err)
	}
	if err := e.Deposit(1); !errors.Is(err, ErrEscrowSettled) {
		t.Errorf("deposit after settle: err = %v", err)
	}
	if err := e.Credit("w", 1); !errors.Is(err, ErrEscrowSettled) {
		t.Errorf("credit after settle: err = %v", err)
	}
}

func TestEscrowEdgeCases(t *testing.T) {
	if _, err := NewEscrow(1); !errors.Is(err, ErrBadCut) {
		t.Errorf("err = %v", err)
	}
	if _, err := NewEscrow(-0.1); !errors.Is(err, ErrBadCut) {
		t.Errorf("err = %v", err)
	}
	e, err := NewEscrow(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Settle(); !errors.Is(err, ErrNoDeposit) {
		t.Errorf("settle without deposit: err = %v", err)
	}
	e2, err := NewEscrow(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Deposit(-1); err == nil {
		t.Error("negative deposit accepted")
	}
	if err := e2.Credit("w", 0); err == nil {
		t.Error("zero credit accepted")
	}
	// Deposit but no contributions: manager keeps all.
	if err := e2.Deposit(10); err != nil {
		t.Fatal(err)
	}
	mgr, payouts, err := e2.Settle()
	if err != nil {
		t.Fatal(err)
	}
	if mgr != 10 || payouts != nil {
		t.Errorf("no-contribution settle = %v, %v", mgr, payouts)
	}
}
