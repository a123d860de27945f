package wire

import (
	"errors"
	"testing"

	"rpol/internal/tensor"
)

// TestDecodersRejectLegacyFormats is the standing regression for the one
// codec: every decoder handed the form a pre-binary or hash-list peer sent —
// a JSON body, a version-1 task without the commitment flag, a kind-0x02
// hash-list result — refuses it with ErrFormat rather than decoding it.
func TestDecodersRejectLegacyFormats(t *testing.T) {
	net, _ := wireTask(t, 40)
	task, err := EncodeTask(wireParams(net.ParamVector()))
	if err != nil {
		t.Fatal(err)
	}
	// The version-1 task: the same fields on the three-byte header, no
	// flags byte.
	v1Task := append([]byte{binMagic, 1, binKindTask}, task[4:]...)
	// The hash-list result: worker, epoch, data size, count, a 2-leaf hash
	// list, no digests, then the update.
	hashList := append([]byte{binMagic, 1, 0x02, 1, 'w', 8, 0x80, 0x02, 4, 64}, make([]byte, 64)...)
	hashList = tensor.Vector{1}.AppendEncode(append(hashList, 0))

	decoders := map[string]func([]byte) error{
		"task":           func(b []byte) error { _, err := DecodeTask(b); return err },
		"result":         func(b []byte) error { _, err := DecodeResult(b); return err },
		"open-request":   func(b []byte) error { _, err := DecodeOpenRequest(b); return err },
		"open-response":  func(b []byte) error { _, err := decodeOpenResponse(b); return err },
		"proof-request":  func(b []byte) error { _, err := DecodeProofRequest(b); return err },
		"proof-response": func(b []byte) error { _, err := decodeProofResponse(b); return err },
	}
	for _, tc := range []struct {
		name, decoder string
		data          []byte
	}{
		{"json-task", "task", []byte(`{"epoch":3,"global":"AgAAAAAAAAAAAAAAAADwPwAAAAAAAABA",` +
			`"optimizer":"sgdm","lr":0.02,"batchSize":4,"steps":10,"checkpointEvery":5,"nonce":7}`)},
		{"json-result", "result", []byte(`{"workerId":"w","epoch":1,"update":"AQAAAAAAAAAAAAAAAADwPw==",` +
			`"dataSize":8,"root":"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA=","numCheckpoints":2}`)},
		{"json-open-request", "open-request", []byte(`{"idx":9}`)},
		{"json-open-response", "open-response", []byte(`{"idx":9,"weights":"AQAAAAAAAAAAAAAAAADwPw=="}`)},
		{"json-proof-request", "proof-request", []byte(`{"idx":7}`)},
		{"json-proof-response", "proof-response", []byte(`{"idx":7,"proof":"AAAAAAAAAAA="}`)},
		{"json-fragment", "task", []byte("{")},
		{"v1-flag-free-task", "task", v1Task},
		{"hash-list-result", "result", hashList},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := decoders[tc.decoder](tc.data); !errors.Is(err, ErrFormat) {
				t.Errorf("%s decoder: err = %v, want ErrFormat", tc.decoder, err)
			}
		})
	}
}
