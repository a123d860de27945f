package netsim

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// writeFrameTo frames msg into buf through a bufio.Writer and flushes, as
// the hub's and the endpoint's writers do.
func writeFrameTo(buf *bytes.Buffer, msg Message) error {
	w := bufio.NewWriter(buf)
	if err := writeFrame(w, msg); err != nil {
		return err
	}
	return w.Flush()
}

func TestWriteFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	// One byte over with the header counted, and one byte over on the
	// payload alone: neither may leave anything buffered or written.
	payload := make([]byte, maxFrameSize+1)
	for _, n := range []int{maxFrameSize - 4, maxFrameSize + 1} {
		msg := Message{From: "a", To: "b", Kind: "k", Payload: payload[:n]}
		err := writeFrame(w, msg)
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("%d payload bytes: err = %v, want ErrFrameTooLarge", n, err)
		}
		if w.Buffered() != 0 || buf.Len() != 0 {
			t.Fatalf("oversized frame left %d bytes buffered, %d written", w.Buffered(), buf.Len())
		}
	}
}

// TestWriteFrameWireBytes pins the frame bytes on the wire against the
// header built by hand, and that building it allocates nothing.
func TestWriteFrameWireBytes(t *testing.T) {
	msg := Message{From: "manager", To: "worker-03", Kind: "task", Seq: 300, Payload: []byte("payload")}
	want := []byte{0, 0, 0, 0, frameMagic, frameVersion}
	want = appendFrameString(want, msg.From)
	want = appendFrameString(want, msg.To)
	want = appendFrameString(want, msg.Kind)
	want = binary.AppendUvarint(want, msg.Seq)
	want = append(want, msg.Payload...)
	binary.BigEndian.PutUint32(want[:4], uint32(len(want)-4))
	var buf bytes.Buffer
	if err := writeFrameTo(&buf, msg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("frame bytes\n got %x\nwant %x", buf.Bytes(), want)
	}
	w := bufio.NewWriter(io.Discard)
	if allocs := testing.AllocsPerRun(50, func() {
		if err := writeFrame(w, msg); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("writeFrame allocates %v times per frame, want 0", allocs)
	}
}

// TestTCPOversizedSendDoesNotPoisonConnection asserts the sender-side frame
// bound: an oversized Send must fail locally, before any bytes hit the
// socket, so the same connection keeps working afterwards. Before the fix
// the length prefix could silently truncate and/or the peer's read loop died
// with ErrFrameTooLarge.
func TestTCPOversizedSendDoesNotPoisonConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a >64MB payload")
	}
	hub := startHub(t)
	a := dial(t, hub, "manager")
	b := dial(t, hub, "worker-1")

	err := a.Send("worker-1", "blob", make([]byte, maxFrameSize+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized send err = %v, want ErrFrameTooLarge", err)
	}
	// The connection must still carry ordinary traffic in both directions.
	if err := a.Send("worker-1", "task", []byte("after")); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != "task" || string(msg.Payload) != "after" {
		t.Errorf("msg = %+v", msg)
	}
	if err := b.Send("manager", "result", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if reply, err := a.Recv(); err != nil || string(reply.Payload) != "ok" {
		t.Fatalf("reply = %+v, err = %v", reply, err)
	}
}

// FuzzReadFrame fuzzes the wire frame decoder. The seeds include the
// truncated-length-prefix case: a prefix announcing more bytes than follow
// must fail with an unexpected-EOF-style error, never hang or panic, and a
// prefix over maxFrameSize must be rejected before allocating.
func FuzzReadFrame(f *testing.F) {
	// Valid frame.
	var valid bytes.Buffer
	if err := writeFrameTo(&valid, Message{From: "a", To: "b", Kind: "k", Payload: []byte("p")}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// Truncated length prefix: fewer than 4 header bytes.
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x00, 0x00})
	// Prefix announces 16 bytes, body is shorter.
	truncated := []byte{0x00, 0x00, 0x00, 0x10, 'x', 'y'}
	f.Add(truncated)
	// Prefix over maxFrameSize.
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], maxFrameSize+1)
	f.Add(huge[:])
	// Valid prefix, garbage JSON body.
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, '{', 'x'})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := readFrame(bytes.NewReader(data), nil, nil)
		if err != nil {
			if strings.Contains(err.Error(), "netsim") ||
				errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
				errors.Is(err, ErrFrameTooLarge) {
				return
			}
			t.Fatalf("unexpected error class: %v", err)
		}
		// A decoded frame must round-trip.
		var buf bytes.Buffer
		if err := writeFrameTo(&buf, msg); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
	})
}
