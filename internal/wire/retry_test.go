package wire

import (
	"errors"
	"testing"
	"time"

	"rpol/internal/netsim"
	"rpol/internal/obs"
	"rpol/internal/rpol"
)

// The deadlines below are logical: every poll of a retrying call reads the
// SimClock once, one microsecond a reading. They are sized for a hub round
// trip on one OS thread, where the endpoint pump runs only when the runtime
// next polls the network.

func retryPort(t *testing.T, hub *netsim.TCPHub, pol RetryPolicy) (*ManagerPort, *obs.Observer) {
	t.Helper()
	mp := testPort(t, hub)
	observer := obs.NewObserver(obs.NewRegistry(), nil)
	mp.SetObserver(observer)
	mp.SetRetryPolicy(&pol)
	return mp, observer
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
			if err := ep.SendSeq(msg.From, KindResult, msg.Seq, reply(msg.Payload)); err != nil {
				return
			}
		}
	}()
	return done
}

func TestCallRetryTimesOutAsUnavailable(t *testing.T) {
	hub := testHub(t)
	mp, observer := retryPort(t, hub, RetryPolicy{Attempts: 2, Timeout: time.Millisecond})
	_ = dialTest(t, hub, "worker-1") // registered but silent

	_, err := mp.call("worker-1", KindTask, []byte("x"), KindResult)
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

func TestCallRetryDiscardsStaleReplies(t *testing.T) {
	hub := testHub(t)
	mp, _ := retryPort(t, hub, RetryPolicy{Attempts: 3, Timeout: 100 * time.Millisecond})
	wep := dialTest(t, hub, "worker-1")

	// First exchange: the worker never answers, so the call exhausts its
	// attempts and abandons seq 1 (three copies of it sit in the inbox).
	if _, err := mp.call("worker-1", KindTask, []byte("a"), KindResult); !errors.Is(err, rpol.ErrWorkerUnavailable) {
		t.Fatalf("err = %v, want ErrWorkerUnavailable", err)
	}

	// The worker now wakes up: it first answers every stale request it finds,
	// then serves fresh ones as they arrive.
	done := echoServer(wep, func(p []byte) []byte { return []byte("reply-" + string(p)) })

	// Second exchange: the manager must skip the three stale seq-1 replies
	// and accept only the seq-2 reply carrying payload "b".
	got, err := mp.call("worker-1", KindTask, []byte("b"), KindResult)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "reply-b" {
		t.Fatalf("payload = %q, want %q (stale reply accepted?)", got.Payload, "reply-b")
	}
	hub.Close()
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
	mp, observer := retryPort(t, hub, RetryPolicy{Attempts: 25, Timeout: 2 * time.Millisecond})
	done := echoServer(dialTest(t, hub, "worker-1"), func(p []byte) []byte { return p })

	for i := 0; i < 20; i++ {
		got, err := mp.call("worker-1", KindTask, []byte{byte(i)}, KindResult)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(got.Payload) != 1 || got.Payload[0] != byte(i) {
			t.Fatalf("call %d: payload %v", i, got.Payload)
		}
	}
	drops, _ := hub.Meter().Injected()
	if drops == 0 {
		t.Fatal("fault plan injected no drops at 50% rate")
	}
	if observer.Counter("net_retries_total").Value() == 0 {
		t.Error("exchanges survived drops without recording any retries")
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
			_ = srv.send(msg.From, KindError, msg.Seq, []byte(err.Error()))
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
