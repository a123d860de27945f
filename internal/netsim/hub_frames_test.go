package netsim

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"net"
	"testing"
)

// stamped returns a payload of size pattern bytes derived from i followed by
// their CRC, so a frame body rewritten while it was queued cannot pass for
// any message's.
func stamped(i, size int) []byte {
	p := make([]byte, size+4)
	for j := range p[:size] {
		p[j] = byte(i*31 + j)
	}
	binary.BigEndian.PutUint32(p[size:], crc32.ChecksumIEEE(p[:size]))
	return p
}

func checkStamp(t *testing.T, msg Message) {
	t.Helper()
	n := len(msg.Payload) - 4
	if n < 0 || crc32.ChecksumIEEE(msg.Payload[:n]) != binary.BigEndian.Uint32(msg.Payload[n:]) {
		t.Fatalf("message %d (%d bytes): payload does not match its checksum: the frame was rewritten in flight", msg.Seq, len(msg.Payload))
	}
	if n > 0 && msg.Payload[0] != byte(int(msg.Seq)*31) {
		t.Fatalf("message %d carries another message's payload", msg.Seq)
	}
}

// slowClient registers on the hub over a bare socket that the test reads at
// its own pace — until it does, the hub's writer for it backs up against the
// socket buffers and frames wait in the hub's queue.
func slowClient(t *testing.T, hub *TCPHub, name string) *bufio.Reader {
	t.Helper()
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	w := bufio.NewWriter(conn)
	if err := writeFrame(w, Message{From: name, Kind: KindRegister}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	if ack, err := readFrame(r, nil, nil); err != nil || ack.Kind != KindRegistered {
		t.Fatalf("registration: %+v, %v", ack, err)
	}
	return r
}

// routedBarrier returns once every frame sender sent before the call has
// been through the hub's route: a sender's frames are routed in order, so a
// follow-up reaching a third endpoint proves it.
func routedBarrier(t *testing.T, sender, probe *TCPEndpoint) {
	t.Helper()
	if err := sender.Send(probe.name, "barrier", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Recv(); err != nil {
		t.Fatal(err)
	}
}

// faultedBarrier is routedBarrier on a hub running plan, whose sender→probe
// link is faulted too: it sends barriers until the plan lets one through and
// returns how many it dropped.
func faultedBarrier(t *testing.T, plan *FaultPlan, sender, probe *TCPEndpoint) (dropped int64) {
	t.Helper()
	for n := uint64(0); plan.Decide(sender.name, probe.name, n).Drop; n++ {
		dropped++
		if err := sender.Send(probe.name, "barrier", nil); err != nil {
			t.Fatal(err)
		}
	}
	routedBarrier(t, sender, probe)
	return dropped
}

// TestTCPHubQueuedFramesNeverRewritten bursts 64 checksummed messages of
// mixed sizes at a reader that is not reading, interleaved with frames the
// hub drops (unknown destination, injected faults) and whose pooled buffers
// it therefore recycles at once. Every frame the reader finally drains must
// still be the one that was sent, in its place a lost notice for each one the
// plan dropped, and the meter must account exactly what a hub without buffer
// reuse accounts: the notices are not metered.
func TestTCPHubQueuedFramesNeverRewritten(t *testing.T) {
	hub := startHub(t)
	reg := observe(hub)
	plan := NewFaultPlan(7, FaultConfig{DropRate: 0.25})
	hub.InjectFaults(plan, nil)
	sender := dial(t, hub, "sender")
	probe := dial(t, hub, "probe")
	slow := slowClient(t, hub, "slow")
	base := hub.Meter().Total()

	const burst = 64
	lost := map[uint64]bool{} // sequence numbers the plan drops on their way to slow
	var wantBytes, drops, dropBytes, injectedDrops int64
	for i := 0; i < burst; i++ {
		size := 100 + (i%4)*48<<10 // 100 B … 144 KB, so buffers of every size get reused
		payload := stamped(i, size)
		if plan.Decide("sender", "slow", uint64(i)).Drop {
			lost[uint64(i)] = true
			injectedDrops++
			drops++
			dropBytes += Message{Payload: payload}.Size()
		} else {
			wantBytes += Message{Payload: payload}.Size()
		}
		if err := sender.SendSeq("slow", "burst", uint64(i), payload); err != nil {
			t.Fatal(err)
		}
		// Nobody is called ghost: dropped, by the plan or for want of a
		// destination, and its buffer is back in the pool at once.
		ghost := stamped(i, 1+i*997)
		if plan.Decide("sender", "ghost", uint64(i)).Drop {
			injectedDrops++
		}
		drops++
		dropBytes += Message{Payload: ghost}.Size()
		if err := sender.SendSeq("ghost", "burst", uint64(i), ghost); err != nil {
			t.Fatal(err)
		}
	}
	if len(lost) == burst || len(lost) == 0 {
		t.Fatalf("the fault plan dropped %d of %d; pick a seed that exercises both paths", len(lost), burst)
	}
	barrierDrops := faultedBarrier(t, plan, sender, probe)
	injectedDrops += barrierDrops
	drops += barrierDrops
	dropBytes += barrierDrops * Message{}.Size()

	for seq := uint64(0); seq < burst; seq++ {
		msg, err := readFrame(slow, nil, nil)
		if err != nil {
			t.Fatalf("draining message %d: %v", seq, err)
		}
		if lost[seq] {
			if msg.Seq != seq || msg.From != "sender" || msg.Kind != KindLost || len(msg.Payload) != 0 {
				t.Fatalf("drained %+v, want the lost notice for message %d", msg, seq)
			}
			continue
		}
		if msg.Seq != seq || msg.From != "sender" || msg.Kind != "burst" {
			t.Fatalf("drained %+v, want burst message %d", msg, seq)
		}
		checkStamp(t, msg)
	}
	meter := hub.Meter()
	if got := meter.ByKind()["burst"]; got != wantBytes {
		t.Errorf("burst bytes delivered = %d, want %d", got, wantBytes)
	}
	if got := meter.Total() - base; got != wantBytes+(Message{}).Size() {
		t.Errorf("bytes delivered = %d, want the burst's %d and one barrier", got, wantBytes)
	}
	if msgs, bytes := dropped(reg); msgs != drops || bytes != dropBytes {
		t.Errorf("dropped %d messages, %d bytes; want %d and %d", msgs, bytes, drops, dropBytes)
	}
	if got, _ := injected(reg); got != injectedDrops {
		t.Errorf("injected drops = %d, want %d", got, injectedDrops)
	}
}

// TestTCPHubQueueFullKeepsQueuedFrames overflows the queue of a destination
// that is not reading: the overflow is dropped and accounted, and every
// frame that did get queued drains intact although the dropped frames'
// buffers were recycled while it waited.
func TestTCPHubQueueFullKeepsQueuedFrames(t *testing.T) {
	hub := startHub(t)
	reg := observe(hub)
	sender := dial(t, hub, "sender")
	probe := dial(t, hub, "probe")
	slow := slowClient(t, hub, "slow")

	// Frames large enough to fill the socket buffers park the hub's writer;
	// the small ones behind them then fill the queue and spill over.
	const large, small = 12, queueDepth + 100
	var sentBytes int64
	for i := 0; i < large+small; i++ {
		size := 64
		if i < large {
			size = 2 << 20
		}
		payload := stamped(i, size)
		sentBytes += Message{Payload: payload}.Size()
		if err := sender.SendSeq("slow", "flood", uint64(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	routedBarrier(t, sender, probe)

	meter := hub.Meter()
	drops, droppedBytes := dropped(reg)
	if drops == 0 {
		t.Fatal("the queue never overflowed; the test needs more or larger frames")
	}
	if got := meter.ByKind()["flood"] + droppedBytes; got != sentBytes {
		t.Errorf("delivered + dropped bytes = %d, want the %d sent", got, sentBytes)
	}
	last := int64(-1)
	for n := int64(0); n < large+small-drops; n++ {
		msg, err := readFrame(slow, nil, nil)
		if err != nil {
			t.Fatalf("draining frame %d of %d: %v", n, large+small-drops, err)
		}
		if int64(msg.Seq) <= last {
			t.Fatalf("frame %d arrived after frame %d", msg.Seq, last)
		}
		last = int64(msg.Seq)
		checkStamp(t, msg)
	}
}
