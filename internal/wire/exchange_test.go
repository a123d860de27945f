package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpol/internal/netsim"
	"rpol/internal/rpol"
)

// TestConcurrentCollectionOverOnePort: collecting every worker at once over
// one port gives the serial run's verdicts, metered bytes and global model,
// under v1 and v2.
func TestConcurrentCollectionOverOnePort(t *testing.T) {
	for _, scheme := range []rpol.Scheme{rpol.SchemeV1, rpol.SchemeV2} {
		cfg := tcpRun{scheme: scheme, workers: 4, adv1: 1, epochs: 2}
		serial := runOverTCP(t, cfg)
		cfg.concurrent = true
		concurrent := runOverTCP(t, cfg)
		if concurrent.full != serial.full {
			t.Errorf("%v: concurrent fingerprint %s, serial %s", scheme, concurrent.full, serial.full)
		}
		if !maps.Equal(concurrent.bytes, serial.bytes) {
			t.Errorf("%v: concurrent bytes %v, serial %v", scheme, concurrent.bytes, serial.bytes)
		}
	}
}

// TestSeededFaultReplaySchedulerFree replays one seeded plan of drops,
// delays and partitions over 3 epochs at one P and at every CPU, each beside
// a spinning goroutine, collecting serially and concurrently: the plan alone
// decides every loss, so all four runs agree on every outcome, byte,
// injected fault, retry and the global model.
func TestSeededFaultReplaySchedulerFree(t *testing.T) {
	if testing.Short() {
		t.Skip("four 3-epoch pool runs")
	}
	plan := netsim.NewFaultPlan(5, netsim.FaultConfig{
		DropRate: 0.08, DelayRate: 0.2, MaxDelay: time.Millisecond,
		PartitionRate: 0.15, PartitionWindow: 4,
	})
	cfg := tcpRun{scheme: rpol.SchemeV2, workers: 4, adv1: 1, epochs: 3, plan: plan, attempts: 3}
	replay := func(procs int, concurrent bool) (tcpResult, string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var stop atomic.Bool
		var hog sync.WaitGroup
		hog.Add(1)
		go func() {
			defer hog.Done()
			for !stop.Load() {
			}
		}()
		cfg.concurrent = concurrent
		res := runOverTCP(t, cfg)
		stop.Store(true)
		hog.Wait()
		h := sha256.New()
		for _, o := range res.outcomes {
			fmt.Fprintf(h, "%d/%s/%v/%s;", o.Epoch, o.WorkerID, o.Outcome, o.FailReason)
		}
		return res, hex.EncodeToString(h.Sum(nil))
	}
	want, wantOutcomes := replay(1, false)
	t.Logf("the plan dropped %d frames and delayed %d: %d retries, %d timeouts", want.drops, want.delays, want.retries, want.timeouts)
	absent := 0
	for _, o := range want.outcomes {
		if o.Outcome == rpol.OutcomeAbsent {
			absent++
		}
		// tcp-w0 is the replay attacker; a lost exchange never rejects
		// anyone else.
		if o.Outcome == rpol.OutcomeRejected && o.WorkerID != "tcp-w0" {
			t.Errorf("epoch %d: honest %s rejected: %v", o.Epoch, o.WorkerID, o.FailReason)
		}
	}
	// A call the plan defeats costs Attempts timeouts and one fewer retries;
	// one that succeeds has a retry per timeout.
	recovered := 3*want.retries - 2*want.timeouts
	if want.drops == 0 || recovered <= 0 || absent == 0 {
		t.Fatalf("the plan lost %d frames, %d retries recovered, %d absences; pick a plan with at least one of each",
			want.drops, recovered, absent)
	}
	for _, run := range []struct {
		procs      int
		concurrent bool
	}{{1, true}, {runtime.NumCPU(), false}, {runtime.NumCPU(), true}} {
		got, outcomes := replay(run.procs, run.concurrent)
		name := fmt.Sprintf("GOMAXPROCS=%d concurrent=%v", run.procs, run.concurrent)
		if outcomes != wantOutcomes {
			t.Errorf("%s: outcomes differ", name)
		}
		if got.full != want.full {
			t.Errorf("%s: fingerprint %s, want %s", name, got.full, want.full)
		}
		if !maps.Equal(got.bytes, want.bytes) {
			t.Errorf("%s: bytes %v, want %v", name, got.bytes, want.bytes)
		}
		if got.drops != want.drops || got.delays != want.delays {
			t.Errorf("%s: injected %d drops, %d delays; want %d, %d", name, got.drops, got.delays, want.drops, want.delays)
		}
		if got.retries != want.retries || got.timeouts != want.timeouts {
			t.Errorf("%s: %d retries, %d timeouts; want %d, %d", name, got.retries, got.timeouts, want.retries, want.timeouts)
		}
	}
}

// TestSlowServerNeverTimesOut: a server that yields 10⁵ times before each
// reply, on a hub whose plan delays but never drops, is waited on: no
// timeout, and exactly one task frame per call, at one P and at every CPU.
func TestSlowServerNeverTimesOut(t *testing.T) {
	for _, procs := range []int{1, runtime.NumCPU()} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			hub := testHub(t)
			hub.InjectFaults(netsim.NewFaultPlan(3, netsim.FaultConfig{DelayRate: 1, MaxDelay: time.Millisecond}), nil)
			mp, q, observer := retryPort(t, hub, RetryPolicy{Attempts: 3})
			done := echoServer(dialTest(t, hub, "worker-1"), func(p []byte) []byte {
				for i := 0; i < 100_000; i++ {
					runtime.Gosched()
				}
				return p
			})
			const calls = 3
			for i := 0; i < calls; i++ {
				reply, err := mp.call(q, "worker-1", KindTask, raw([]byte{byte(i)}), KindResult)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d call %d: %v", procs, i, err)
				}
				mp.ep.Release(reply)
			}
			if got := observer.Counter("net_timeouts_total").Value(); got != 0 {
				t.Errorf("GOMAXPROCS=%d: %d timeouts, want 0", procs, got)
			}
			if got, want := hub.Meter().ByKind()[KindTask], calls*(netsim.Message{Payload: []byte{0}}).Size(); got != want {
				t.Errorf("GOMAXPROCS=%d: %d task bytes, want %d: one frame per call", procs, got, want)
			}
			if delays := observer.Counter("net_tcp_injected_delays_total").Value(); delays == 0 {
				t.Errorf("GOMAXPROCS=%d: the plan delayed nothing", procs)
			}
			hub.Close()
			<-done
		}()
	}
}

// TestCallAllocatesNothing is the exchange's steady-state guard: a call to
// an echoing peer, its reply released, allocates nothing anywhere on its
// path — the port, the hub and both endpoints.
func TestCallAllocatesNothing(t *testing.T) {
	hub := testHub(t)
	mp, q, _ := retryPort(t, hub, RetryPolicy{})
	wep := dialTest(t, hub, "worker-1")
	go func() {
		for {
			msg, err := wep.Recv()
			if err != nil {
				return
			}
			_ = wep.SendSeq(msg.From, KindResult, msg.Seq, msg.Payload)
			wep.Release(msg)
		}
	}()
	enc := raw(make([]byte, 4096))
	call := func() {
		reply, err := mp.call(q, "worker-1", KindTask, enc, KindResult)
		if err != nil {
			t.Fatal(err)
		}
		mp.ep.Release(reply)
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop frame buffers")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 8; i++ {
		call()
	}
	if got := testing.AllocsPerRun(200, call); got != 0 {
		t.Errorf("a call allocates %.2f times, want 0", got)
	}
}
