package wire

import (
	"errors"
	"testing"

	"rpol/internal/lsh"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// rejectsJSON fails t unless a payload that opens like a JSON body was
// refused with ErrFormat.
func rejectsJSON(t *testing.T, data []byte, err error) {
	t.Helper()
	if len(data) > 0 && data[0] == '{' && !errors.Is(err, ErrFormat) {
		t.Fatalf("JSON body: err = %v, want ErrFormat", err)
	}
}

// FuzzDecodeTask feeds arbitrary bytes to the task decoder: it must never
// panic, must refuse every JSON body with ErrFormat, every accepted task must
// validate, and every accepted task must survive a binary re-encode round
// trip.
func FuzzDecodeTask(f *testing.F) {
	good := rpol.TaskParams{
		Global:          tensor.Vector{1, 2, 3, 4},
		Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: 4},
		Nonce:           7,
		Steps:           10,
		CheckpointEvery: 5,
	}
	if data, err := EncodeTask(good); err == nil {
		f.Add(data)
	}
	fam, err := lsh.NewFamily(4, lsh.Params{R: 1, K: 2, L: 2}, 3)
	if err == nil {
		withLSH := good
		withLSH.LSH = fam
		if data, err := EncodeTask(withLSH); err == nil {
			f.Add(data)
		}
	}
	// JSON bodies, which the decoder must refuse.
	f.Add([]byte("{}"))
	f.Add([]byte(`{"lsh":{"dim":-1}}`))
	f.Add([]byte(`{"global":"BAAAAAAAAAAAAAAAAADwPwAAAAAAAABAAAAAAAAACEAAAAAAAAAQQA==",` +
		`"optimizer":"sgdm","lr":0.02,"batchSize":4,"steps":10,"checkpointEvery":5,"nonce":7}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeTask(data)
		rejectsJSON(t, data, err)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoder accepted invalid task: %v", err)
		}
		reenc, err := AppendTask(nil, p)
		if err != nil {
			t.Fatalf("re-encode of accepted task failed: %v", err)
		}
		rt, err := DecodeTask(reenc)
		if err != nil {
			t.Fatalf("binary round trip failed: %v", err)
		}
		if !rt.Global.Equal(p.Global, 0) || rt.Hyper != p.Hyper || rt.Nonce != p.Nonce ||
			rt.Steps != p.Steps || rt.CheckpointEvery != p.CheckpointEvery || rt.Epoch != p.Epoch {
			t.Fatalf("round trip changed task: %+v vs %+v", rt, p)
		}
	})
}

// FuzzDecodeResult feeds arbitrary bytes to the result decoder: JSON bodies
// are ErrFormat, and accepted results must survive a binary re-encode round
// trip.
func FuzzDecodeResult(f *testing.F) {
	f.Add([]byte("{}"))
	f.Add([]byte(`{"update":"AAAAAAAAAAA=","commit":""}`))
	res := &rpol.EpochResult{
		WorkerID: "w", Epoch: 1, Update: tensor.Vector{1, 2},
		DataSize: 10, NumCheckpoints: 1, MerkleRoot: [32]byte{9, 8},
	}
	if data, err := AppendResult(nil, res); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data)
		rejectsJSON(t, data, err)
		if err != nil {
			return
		}
		reenc, err := AppendResult(nil, res)
		if err != nil {
			t.Fatalf("re-encode of accepted result failed: %v", err)
		}
		rt, err := DecodeResult(reenc)
		if err != nil {
			t.Fatalf("binary round trip failed: %v", err)
		}
		if rt.WorkerID != res.WorkerID || !rt.Update.Equal(res.Update, 0) ||
			rt.MerkleRoot != res.MerkleRoot || rt.NumCheckpoints != res.NumCheckpoints {
			t.Fatal("round trip changed result")
		}
	})
}

// FuzzDecodeOpenResponse fuzzes the remaining binary decoder pair, which
// must refuse JSON bodies with ErrFormat too.
func FuzzDecodeOpenResponse(f *testing.F) {
	f.Add(AppendOpenResponse(nil, 2, "", tensor.Vector{1, 2}))
	f.Add(AppendOpenResponse(nil, 5, "boom", nil))
	f.Add([]byte(`{"idx":1,"weights":"AQAAAAAAAAAAAAAAAADwPw=="}`))
	f.Add(AppendOpenRequest(nil, 3))
	f.Add([]byte(`{"idx":9}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := decodeOpenResponse(data)
		rejectsJSON(t, data, err)
		_, err = DecodeOpenRequest(data)
		rejectsJSON(t, data, err)
	})
}
