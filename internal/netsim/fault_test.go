package netsim

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rpol/internal/obs"
)

func TestFaultPlanDeterministic(t *testing.T) {
	cfg := DefaultFaultConfig()
	a := NewFaultPlan(42, cfg)
	b := NewFaultPlan(42, cfg)
	for seq := uint64(0); seq < 500; seq++ {
		fa := a.Decide("manager", "worker-01", seq)
		fb := b.Decide("manager", "worker-01", seq)
		if fa != fb {
			t.Fatalf("seq %d: same seed diverged: %+v vs %+v", seq, fa, fb)
		}
	}
	for epoch := 0; epoch < 64; epoch++ {
		for w := 0; w < 4; w++ {
			id := fmt.Sprintf("worker-%02d", w)
			if a.WorkerDown(id, epoch) != b.WorkerDown(id, epoch) {
				t.Fatalf("WorkerDown(%s, %d) diverged for same seed", id, epoch)
			}
		}
	}
}

func TestFaultPlanSeedSensitive(t *testing.T) {
	cfg := DefaultFaultConfig()
	a := NewFaultPlan(1, cfg)
	b := NewFaultPlan(2, cfg)
	same := 0
	const n = 2000
	for seq := uint64(0); seq < n; seq++ {
		if a.Decide("m", "w", seq) == b.Decide("m", "w", seq) {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestFaultPlanRates(t *testing.T) {
	// With only drops configured at 10%, the empirical drop rate over many
	// independent links should land near 10%.
	p := NewFaultPlan(7, FaultConfig{DropRate: 0.1})
	drops := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if p.Decide("a", fmt.Sprintf("b%d", i), 0).Drop {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.07 || rate > 0.13 {
		t.Fatalf("empirical drop rate %.3f, want ≈ 0.10", rate)
	}
}

func TestFaultPlanNilSafe(t *testing.T) {
	var p *FaultPlan
	if f := p.Decide("a", "b", 0); f.Drop || f.Delay != 0 {
		t.Fatalf("nil plan injected %+v", f)
	}
	if p.WorkerDown("a", 3) {
		t.Fatal("nil plan crashed a worker")
	}
}

func TestFaultPlanWorkerDownWindows(t *testing.T) {
	// Crashes must respect MaxCrashLen: within any cycle the down epochs
	// form one contiguous window of at most MaxCrashLen epochs.
	cfg := DefaultFaultConfig()
	cfg.CrashRate = 1 // crash every cycle so every window is exercised
	p := NewFaultPlan(9, cfg)
	period := int(cfg.CrashPeriod)
	for cycle := 0; cycle < 50; cycle++ {
		down := 0
		transitions := 0
		prev := false
		for off := 0; off < period; off++ {
			d := p.WorkerDown("w", cycle*period+off)
			if d {
				down++
			}
			if d != prev {
				transitions++
			}
			prev = d
		}
		if down < 1 || down > int(cfg.MaxCrashLen) {
			t.Fatalf("cycle %d: %d down epochs, want 1..%d", cycle, down, cfg.MaxCrashLen)
		}
		if transitions > 2 {
			t.Fatalf("cycle %d: down window not contiguous", cycle)
		}
	}
}

// TestBusSendCloseRace is the regression test for the send-on-closed-channel
// panic: route must hold the hub lock across its enqueue, or a concurrent
// Close (which closes every client queue) makes the enqueue panic. Four
// senders stream frames at one destination while the hub closes. Run with
// -race.
func TestBusSendCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		hub, err := NewTCPHub("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		_ = dial(t, hub, "b")
		senders := make([]*TCPEndpoint, 4)
		for s := range senders {
			senders[s] = dial(t, hub, fmt.Sprintf("s%d", s))
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, ep := range senders {
			wg.Add(1)
			go func(ep *TCPEndpoint) {
				defer wg.Done()
				<-start
				for i := 0; i < 100; i++ {
					// Once the hub is gone a send may fail; that is the
					// expected outcome, not a finding.
					if ep.Send("b", "k", []byte("x")) != nil {
						return
					}
				}
			}(ep)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			hub.Close()
		}()
		close(start)
		wg.Wait()
	}
}

// TestBusFaultInjectionDrops: the hub drops exactly the messages the plan
// decides to drop, on the link's own sequence, and a replay of the same seed
// delivers the same ones.
func TestBusFaultInjectionDrops(t *testing.T) {
	const sent = 200
	plan := NewFaultPlan(3, FaultConfig{DropRate: 0.5})
	var want []uint64
	for i := uint64(0); i < sent; i++ {
		if !plan.Decide("a", "b", i).Drop {
			want = append(want, i)
		}
	}
	if len(want) == 0 || len(want) == sent {
		t.Fatalf("the plan passes %d of %d messages; pick a seed that exercises both paths", len(want), sent)
	}
	run := func() []uint64 {
		hub := startHub(t)
		reg := observe(hub)
		a := dial(t, hub, "a")
		b := dial(t, hub, "b")
		probe := dial(t, hub, "probe")
		hub.InjectFaults(plan, obs.NewSimClock(0))
		for i := uint64(0); i < sent; i++ {
			if err := a.SendSeq("b", "k", i, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		barrierDrops := faultedBarrier(t, plan, a, probe)
		got := make([]uint64, 0, len(want))
		for range want {
			msg, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, msg.Seq)
		}
		if drops, _ := injected(reg); drops-barrierDrops != sent-int64(len(want)) {
			t.Errorf("injected drops = %d, want %d", drops-barrierDrops, sent-len(want))
		}
		return got
	}
	for i, got := range [][]uint64{run(), run()} {
		if !slices.Equal(got, want) {
			t.Fatalf("run %d delivered %v, the plan passes %v", i, got, want)
		}
	}
}

// TestBusFaultDelayAdvancesClock: every injected delay moves the hub's
// logical clock forward by its transit time, and is counted and announced
// once.
func TestBusFaultDelayAdvancesClock(t *testing.T) {
	hub := startHub(t)
	a := dial(t, hub, "a")
	b := dial(t, hub, "b")
	reg := obs.NewRegistry()
	hub.Meter().Attach(reg)
	observer := obs.NewObserver(reg, nil)
	observer.AttachEvents(obs.NewEvents(0, nil))
	prev := obs.Default()
	obs.SetDefault(observer)
	defer obs.SetDefault(prev)
	events := observer.Events()
	clock := obs.NewSimClock(time.Microsecond)
	before := clock.Now()
	hub.InjectFaults(NewFaultPlan(5, FaultConfig{DelayRate: 1, MaxDelay: time.Millisecond}), clock)
	const sent = 50
	for i := 0; i < sent; i++ {
		if err := a.Send("b", "k", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sent; i++ {
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if _, delays := injected(reg); delays != sent {
		t.Fatalf("%d injected delays at 100%% delay rate, want %d", delays, sent)
	}
	if got := reg.Counter("net_tcp_injected_delays_total").Value(); got != sent {
		t.Errorf("net_tcp_injected_delays_total = %d, want %d", got, sent)
	}
	// The hub announces each fault once its delivery is queued, so the last
	// announcement may trail the last receive.
	announced := 0
	var cursor uint64
	for deadline := time.Now().Add(10 * time.Second); announced < sent; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d injected delays announced", announced, sent)
		}
		var evs []obs.StreamEvent
		evs, cursor, _ = events.Since(cursor)
		for _, ev := range evs {
			if ev.Kind != obs.EventFaultInjected || !strings.HasPrefix(ev.Detail, "delay ") {
				t.Fatalf("unexpected event %+v", ev)
			}
			announced++
		}
	}
	if evs, _, _ := events.Since(cursor); announced != sent || len(evs) != 0 {
		t.Errorf("%d injected delays announced, want %d", announced+len(evs), sent)
	}
	// 50 deliveries all delayed: logical time must have advanced well past
	// the two Now() readings' own ticks.
	if advanced := clock.Now() - before; advanced < int64(sent*time.Microsecond) {
		t.Fatalf("clock advanced only %d ns across %d delayed sends", advanced, sent)
	}
}
