package netsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestFrameBinaryRoundTrip pins the binary frame codec: every field survives
// and the body starts with the frame magic.
func TestFrameBinaryRoundTrip(t *testing.T) {
	msgs := []Message{
		{},
		{From: "manager", To: "w1", Kind: "task", Seq: 7, Payload: []byte("payload")},
		{From: "w1", To: "manager", Kind: "result", Payload: bytes.Repeat([]byte{0xAB}, 1<<16)},
		{From: "a", Kind: KindRegister},
	}
	for _, msg := range msgs {
		var buf bytes.Buffer
		if err := writeFrameTo(&buf, msg); err != nil {
			t.Fatalf("%+v: %v", msg, err)
		}
		if body := buf.Bytes()[4:]; body[0] != frameMagic {
			t.Fatalf("frame body starts with 0x%02x, want the magic 0x%02x", body[0], frameMagic)
		}
		got, err := readFrame(&buf, nil, nil)
		if err != nil {
			t.Fatalf("%+v: %v", msg, err)
		}
		if got.From != msg.From || got.To != msg.To || got.Kind != msg.Kind || got.Seq != msg.Seq {
			t.Errorf("frame changed: %+v -> %+v", msg, got)
		}
		if !bytes.Equal(got.Payload, msg.Payload) {
			t.Errorf("payload changed for %+v", msg)
		}
	}
}

// TestReadFrameLegacyJSON feeds frames in the pre-binary JSON encoding:
// the reader refuses each with errBadFrame instead of decoding it.
func TestReadFrameLegacyJSON(t *testing.T) {
	for _, body := range []string{
		`{"From":"m","To":"w","Kind":"task","Payload":"AQID","seq":3}`,
		`{}`,
		`{`,
	} {
		var buf bytes.Buffer
		var prefix [4]byte
		binary.BigEndian.PutUint32(prefix[:], uint32(len(body)))
		buf.Write(prefix[:])
		buf.WriteString(body)
		if got, err := readFrame(&buf, nil, nil); !errors.Is(err, errBadFrame) {
			t.Errorf("JSON frame %s: decoded %+v, err = %v, want errBadFrame", body, got, err)
		}
	}
}

// TestDecodeFrameMalformed walks the truncation points of the binary body.
func TestDecodeFrameMalformed(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrameTo(&buf, Message{From: "a", To: "b", Kind: "k", Seq: 9, Payload: []byte("p")}); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()[4:]
	for cut := 0; cut < len(body)-len("p"); cut++ {
		if _, err := decodeFrame(body[:cut], nil); err == nil {
			t.Errorf("decodeFrame accepted a body truncated to %d bytes", cut)
		}
	}
	if _, err := decodeFrame([]byte{0x42, frameVersion}, nil); err == nil {
		t.Error("decodeFrame accepted a bad magic byte")
	}
	if _, err := decodeFrame([]byte{frameMagic, 0x7F}, nil); err == nil {
		t.Error("decodeFrame accepted an unsupported version")
	}
}
