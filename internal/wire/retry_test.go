package wire

import (
	"errors"
	"testing"

	"rpol/internal/netsim"
	"rpol/internal/obs"
	"rpol/internal/rpol"
)

// retryPort is a port under pol, counting into the returned observer, with
// the queue it receives worker-1's replies on.
func retryPort(t *testing.T, hub *netsim.TCPHub, pol RetryPolicy) (*ManagerPort, *netsim.Queue, *obs.Observer) {
	t.Helper()
	mp := testPort(t, hub)
	observer := obs.NewObserver(obs.NewRegistry(), nil)
	mp.SetObserver(observer)
	mp.SetRetryPolicy(&pol)
	hub.Observe(observer.Registry())
	q, err := mp.ep.Claim("worker-1")
	if err != nil {
		t.Fatal(err)
	}
	return mp, q, observer
}

// raw encodes a request as p.
func raw(p []byte) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) { return append(b, p...), nil }
}

// echoServer answers every request the endpoint receives with reply(payload),
// echoing its Seq, until the connection closes; the returned channel closes
// when it stops.
func echoServer(ep *netsim.TCPEndpoint, reply func([]byte) []byte) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			msg, err := ep.Recv()
			if err != nil {
				return
			}
			err = ep.SendSeq(msg.From, KindResult, msg.Seq, reply(msg.Payload))
			ep.Release(msg)
			if err != nil {
				return
			}
		}
	}()
	return done
}

// TestCallRetryTimesOutAsUnavailable: the plan partitions every link, so the
// hub reports each attempt's request lost, and the call gives up as
// unavailable after its attempts.
func TestCallRetryTimesOutAsUnavailable(t *testing.T) {
	hub := testHub(t)
	hub.InjectFaults(netsim.NewFaultPlan(1, netsim.FaultConfig{PartitionRate: 1}), nil)
	mp, q, observer := retryPort(t, hub, RetryPolicy{Attempts: 2})
	_ = dialTest(t, hub, "worker-1") // registered, but behind the partition

	_, err := mp.call(q, "worker-1", KindTask, raw([]byte("x")), KindResult)
	if !errors.Is(err, rpol.ErrWorkerUnavailable) {
		t.Fatalf("err = %v, want ErrWorkerUnavailable", err)
	}
	if got := observer.Counter("net_timeouts_total").Value(); got != 2 {
		t.Errorf("net_timeouts_total = %d, want 2 (one per attempt)", got)
	}
	if got := observer.Counter("net_retries_total").Value(); got != 1 {
		t.Errorf("net_retries_total = %d, want 1", got)
	}
}

// TestCallRetryDiscardsStaleReplies: a worker that answers with other Seqs
// first, a lost notice among them, has only its reply with the request's Seq
// returned.
func TestCallRetryDiscardsStaleReplies(t *testing.T) {
	hub := testHub(t)
	mp, q, _ := retryPort(t, hub, RetryPolicy{})
	wep := dialTest(t, hub, "worker-1")
	done := make(chan struct{})
	go func() {
		defer close(done)
		msg, err := wep.Recv()
		if err != nil {
			return
		}
		for _, seq := range []uint64{msg.Seq + 1, 0, msg.Seq + 7} {
			_ = wep.SendSeq(msg.From, KindResult, seq, []byte("stale"))
		}
		_ = wep.SendSeq(msg.From, netsim.KindLost, msg.Seq+2, nil)
		_ = wep.SendSeq(msg.From, KindResult, msg.Seq, []byte("reply-"+string(msg.Payload)))
	}()

	got, err := mp.call(q, "worker-1", KindTask, raw([]byte("b")), KindResult)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "reply-b" {
		t.Fatalf("payload = %q, want %q (stale reply accepted?)", got.Payload, "reply-b")
	}
	<-done
}

func TestCallRetryRecoversFromDrops(t *testing.T) {
	// Deterministically drop manager→worker traffic often; with enough
	// attempts the exchange still completes and records the retries.
	hub := testHub(t)
	// Both directions drop, so one attempt succeeds with probability ~0.25;
	// the generous attempt budget keeps the (fixed, seed-determined)
	// schedule comfortably inside it.
	hub.InjectFaults(netsim.NewFaultPlan(11, netsim.FaultConfig{DropRate: 0.5}), obs.NewSimClock(0))
	mp, q, observer := retryPort(t, hub, RetryPolicy{Attempts: 25})
	done := echoServer(dialTest(t, hub, "worker-1"), func(p []byte) []byte { return p })

	for i := 0; i < 20; i++ {
		got, err := mp.call(q, "worker-1", KindTask, raw([]byte{byte(i)}), KindResult)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(got.Payload) != 1 || got.Payload[0] != byte(i) {
			t.Fatalf("call %d: payload %v", i, got.Payload)
		}
		mp.ep.Release(got)
	}
	if drops := observer.Counter("net_tcp_injected_drops_total").Value(); drops == 0 {
		t.Fatal("fault plan injected no drops at 50% rate")
	}
	retries := observer.Counter("net_retries_total").Value()
	if retries == 0 {
		t.Error("exchanges survived drops without recording any retries")
	}
	if timeouts := observer.Counter("net_timeouts_total").Value(); timeouts != retries {
		t.Errorf("%d lost attempts, %d retries: every retry of a call that succeeded follows one loss", timeouts, retries)
	}
	hub.Close()
	<-done
}

func TestWorkerServerEchoesSeq(t *testing.T) {
	hub := testHub(t)
	mep := dialTest(t, hub, "manager")
	wep := dialTest(t, hub, "worker-1")
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Malformed request: the server replies KindError, echoing the seq.
		msg, err := wep.Recv()
		if err != nil {
			return
		}
		srv := &WorkerServer{ep: wep}
		if err := srv.handle(msg); err != nil {
			_ = srv.ep.SendSeq(msg.From, KindError, msg.Seq, []byte(err.Error()))
		}
	}()
	if err := mep.SendSeq("worker-1", "bogus-kind", 77, nil); err != nil {
		t.Fatal(err)
	}
	reply, err := mep.Recv()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if reply.Kind != KindError {
		t.Fatalf("reply kind = %q, want error", reply.Kind)
	}
	if reply.Seq != 77 {
		t.Fatalf("reply seq = %d, want 77 (server must echo the request seq)", reply.Seq)
	}
}
