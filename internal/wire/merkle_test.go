package wire

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"rpol/internal/commitment"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// rootResult builds a Merkle-committed submission by hand.
func rootResult(t *testing.T) (*rpol.EpochResult, *rpol.EpochCommitment) {
	t.Helper()
	checkpoints := []tensor.Vector{{1, 2}, {3, 4}, {5, 6}}
	ec, err := rpol.CommitTrace(nil, checkpoints, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &rpol.EpochResult{
		WorkerID:       "w-root",
		Epoch:          2,
		Update:         tensor.Vector{4, 4},
		DataSize:       64,
		NumCheckpoints: len(checkpoints),
	}
	ec.Apply(r)
	return r, ec
}

// TestTaskMerkleFlagRoundTrip checks the task flags byte: every task is
// written on the version-2 header with bit 0 (the Merkle commitment) set,
// and a decoder accepts exactly that byte — an unknown bit, or bit 0
// cleared, is ErrFormat.
func TestTaskMerkleFlagRoundTrip(t *testing.T) {
	net, _ := wireTask(t, 50)
	p := wireParams(net.ParamVector())

	flagged, err := EncodeTask(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{binMagic, 2, binKindTask, taskFlagMerkleRoot}; !bytes.Equal(flagged[:4], want) {
		t.Fatalf("task header % x, want % x", flagged[:4], want)
	}
	got, err := DecodeTask(flagged)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Global.Equal(p.Global, 0) || got.Hyper != p.Hyper {
		t.Errorf("flagged task lost fields: %+v", got)
	}

	for _, flags := range []byte{taskFlagMerkleRoot | 0x80, 0} {
		bad := append([]byte{}, flagged...)
		bad[3] = flags
		if _, err := DecodeTask(bad); !errors.Is(err, ErrFormat) {
			t.Errorf("flags 0x%02x: err = %v, want ErrFormat", flags, err)
		}
	}
}

func TestRootResultRoundTrip(t *testing.T) {
	res, _ := rootResult(t)
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if data[2] != binKindResult {
		t.Fatalf("root result emitted kind 0x%02x, want 0x%02x", data[2], binKindResult)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.MerkleRoot != res.MerkleRoot {
		t.Errorf("root changed: %+v", got)
	}
	if got.WorkerID != res.WorkerID || got.Epoch != res.Epoch ||
		got.DataSize != res.DataSize || got.NumCheckpoints != res.NumCheckpoints {
		t.Errorf("metadata changed: %+v", got)
	}
	if !got.Update.Equal(res.Update, 0) {
		t.Errorf("update = %v, want %v", got.Update, res.Update)
	}

}

// TestDecodeResultBounds is the malformed-submission regression suite: a
// decoded result's declared checkpoint count must be bounded, and its root
// must be whole.
func TestDecodeResultBounds(t *testing.T) {
	root, _ := rootResult(t)
	good, err := EncodeResult(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -4, maxWireCheckpoints + 1} {
		claim := *root
		claim.NumCheckpoints = n
		bad, err := EncodeResult(&claim)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeResult(bad); err == nil {
			t.Errorf("claimed count %d accepted", n)
		}
	}

	// Truncating the 32-byte root must fail, not misparse the update tail as
	// root bytes.
	if _, err := DecodeResult(good[:len(good)-len(root.Update.Encode())-4]); err == nil {
		t.Error("truncated root accepted")
	}

	// Sanity: the unmutated frame still decodes.
	if _, err := DecodeResult(good); err != nil {
		t.Fatal(err)
	}
}

func TestProofMessagesRoundTrip(t *testing.T) {
	_, ec := rootResult(t)
	lp, err := ec.OpenProof(1)
	if err != nil {
		t.Fatal(err)
	}

	req, err := DecodeProofRequest(AppendProofRequest(nil, 7))
	if err != nil || req.Idx != 7 {
		t.Errorf("proof request = %+v, err = %v", req, err)
	}

	resp, err := decodeProofResponse(AppendProofResponse(nil, 1, "", lp))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Idx != 1 || resp.Err != "" || resp.Proof.Index != lp.Proof.Index ||
		len(resp.Proof.Siblings) != len(lp.Proof.Siblings) {
		t.Fatalf("proof response = %+v", resp)
	}
	for i := range resp.Proof.Siblings {
		if resp.Proof.Siblings[i] != lp.Proof.Siblings[i] {
			t.Fatal("proof siblings changed over the wire")
		}
	}
	if !bytes.Equal(resp.Digest, lp.Digest) {
		t.Errorf("digest = %v, want %v", resp.Digest, lp.Digest)
	}

	resp, err = decodeProofResponse(AppendProofResponse(nil, 9, "no proof", rpol.LeafProof{}))
	if err != nil || resp.Idx != 9 || resp.Err != "no proof" {
		t.Errorf("error response = %+v, err = %v", resp, err)
	}

	// A proof blob claiming an absurd depth must be rejected before any
	// sibling allocation.
	huge := commitment.MerkleProof{Index: 0, Siblings: make([]commitment.Hash, commitment.MaxProofSiblings+1)}
	frame := AppendProofResponse(nil, 1, "", rpol.LeafProof{Proof: huge})
	if _, err := decodeProofResponse(frame); err == nil {
		t.Error("oversized proof depth accepted")
	}
}

// TestMerkleOverBusEndToEnd drives the full proof-pull protocol over the
// metered hub: the worker trains, submits only the root, and the manager's
// verifier pulls inclusion proofs through the RemoteWorker proxy.
func TestMerkleOverBusEndToEnd(t *testing.T) {
	hub := testHub(t)
	var wg sync.WaitGroup
	defer func() {
		hub.Close()
		wg.Wait()
	}()

	net, ds := wireTask(t, 31)
	local, err := rpol.NewHonestWorker("w-merkle", gpu.GA10, 71, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	startServedWorker(t, hub, &wg, local)
	remote, err := NewRemoteWorker("w-merkle", gpu.GA10, testPort(t, hub))
	if err != nil {
		t.Fatal(err)
	}

	p := wireParams(net.ParamVector())
	fam, err := lsh.NewFamily(len(p.Global), lsh.Params{R: 0.5, K: 2, L: 2}, 9)
	if err != nil {
		t.Fatal(err)
	}
	p.LSH = fam
	result, err := remote.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	if result.MerkleRoot == (commitment.Hash{}) {
		t.Fatal("submission carries no root")
	}

	verifyNet, _ := wireTask(t, 31)
	device, err := gpu.NewDevice(gpu.G3090, 5)
	if err != nil {
		t.Fatal(err)
	}
	verifier := &rpol.Verifier{
		Scheme: rpol.SchemeV2, Net: verifyNet, Device: device, Beta: 0.5,
		LSH: fam, Samples: 2, Sampler: tensor.NewRNG(8),
	}
	out, err := verifier.VerifySubmission(remote, ds, result, p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatalf("merkle submission rejected over the hub: %s", out.FailReason)
	}
	if byKind := hub.Meter().ByKind(); byKind[KindProofRequest] == 0 || byKind[KindProofResponse] == 0 {
		t.Errorf("no proof-pull traffic metered: %v", byKind)
	}
}
