package netsim

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
)

// pipeEndpoint is a TCPEndpoint whose pump reads the frames the returned
// writer sends: the endpoint's receive path alone, with no hub in between.
func pipeEndpoint(t *testing.T) (*TCPEndpoint, func(Message)) {
	t.Helper()
	local, remote := net.Pipe()
	ep := newEndpoint("worker", local)
	go ep.pump()
	w := bufio.NewWriter(remote)
	t.Cleanup(func() {
		_ = ep.Close()
		_ = remote.Close()
	})
	return ep, func(msg Message) {
		if err := writeFrame(w, msg); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEndpointReleasedFramesAreReused pins the endpoint's frame ownership: a
// received payload is the caller's until Release — later frames never write
// it — and released frames are what the pump reads later ones into: reading
// one frame ahead of a consumer that releases each, it cycles through two or
// three buffers however many frames arrive.
func TestEndpointReleasedFramesAreReused(t *testing.T) {
	ep, send := pipeEndpoint(t)
	payload := func(b byte) []byte { return bytes.Repeat([]byte{b}, 4096) }
	send(Message{From: "manager", To: "worker", Kind: "task", Payload: payload(1)})
	held, err := ep.Recv()
	if err != nil {
		t.Fatal(err)
	}
	buffers := map[*byte]bool{}
	for i := byte(2); i < 12; i++ {
		send(Message{From: "manager", To: "worker", Kind: "task", Payload: payload(i)})
		msg, err := ep.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(msg.Payload, payload(i)) {
			t.Fatalf("frame %d arrived as %v…", i, msg.Payload[:4])
		}
		buffers[&msg.Payload[0]] = true
		ep.Release(msg)
	}
	if len(buffers) > 3 {
		t.Errorf("10 released frames were read into %d buffers, want at most 3", len(buffers))
	}
	if !bytes.Equal(held.Payload, payload(1)) {
		t.Error("a frame read after an unreleased one overwrote its payload")
	}
	ep.Release(Message{Payload: payload(9)}) // received by no endpoint: ignored
}

// TestEndpointRecvAllocatesNoFrame is the endpoint's steady-state guard:
// receiving and releasing a model-sized frame allocates only its header's
// strings, never a body.
func TestEndpointRecvAllocatesNoFrame(t *testing.T) {
	ep, send := pipeEndpoint(t)
	msg := Message{From: "manager", To: "worker", Kind: "task", Payload: make([]byte, 64<<10)}
	recv := func() {
		send(msg)
		got, err := ep.Recv()
		if err != nil {
			t.Fatal(err)
		}
		ep.Release(got)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	recv()
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		recv()
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.TotalAlloc-before.TotalAlloc) / runs; got > float64(len(msg.Payload))/2 {
		t.Errorf("a received, released frame allocates %.0f bytes, want less than half its %d-byte body", got, len(msg.Payload))
	}
}
