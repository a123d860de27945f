package obshttp

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"rpol/internal/fsio"
	"rpol/internal/obs"
	"rpol/internal/pool"
	"rpol/internal/rpol"
)

// TestServeIsPassive is the acceptance criterion for the exposition layer:
// a seeded run scraped by a live consumer — hammering /delta and /events
// while epochs are in flight — must produce byte-identical protocol results
// to the same run with no server at all, while the streams carry non-empty,
// monotonically sequenced data.
func TestServeIsPassive(t *testing.T) {
	cfg := pool.Config{
		TaskName:      "resnet18-cifar10",
		Scheme:        rpol.SchemeV2,
		NumWorkers:    5,
		StepsPerEpoch: 10,
		Samples:       2,
		Seed:          321,
		Adv1Fraction:  0.25, // one replay attacker, so rejection events flow too
	}
	const epochs = 2

	run := func(cfg pool.Config) ([]*pool.EpochStats, uint64) {
		t.Helper()
		p, err := pool.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats := make([]*pool.EpochStats, epochs)
		for i := range stats {
			if stats[i], err = p.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		return stats, fsio.Checksum(p.Manager().Global().Encode())
	}

	plain, plainDigest := run(cfg)

	// Same run, now observed: registry + event log + HTTP server + a
	// scraper goroutine tailing /delta and /events throughout.
	observed := cfg
	reg := obs.NewRegistry()
	observed.Obs = obs.NewObserver(reg, nil)
	events := obs.NewEvents(1024, nil)
	events.Observe(reg)
	observed.Obs.AttachEvents(events)
	srv, err := Serve("localhost:0", NewServer(Config{Observer: observed.Obs}).Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Shutdown(time.Second) }()

	var (
		wg          sync.WaitGroup
		stop        = make(chan struct{})
		mu          sync.Mutex
		deltaPolls  int
		sawCounters bool
		eventSeqs   []uint64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var metricsSince, eventsSince uint64
		for {
			var d obs.Delta
			getJSON(t, "http://"+srv.Addr+"/delta?since="+utoa(metricsSince), &d)
			metricsSince = d.Seq
			var er eventsResponse
			getJSON(t, "http://"+srv.Addr+"/events?since="+utoa(eventsSince), &er)
			eventsSince = er.Latest
			mu.Lock()
			deltaPolls++
			if len(d.Counters) > 0 {
				sawCounters = true
			}
			for _, ev := range er.Events {
				eventSeqs = append(eventSeqs, ev.Seq)
			}
			mu.Unlock()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	traced, tracedDigest := run(observed)
	close(stop)
	wg.Wait()

	// Protocol results must be identical to the unobserved run.
	if plainDigest != tracedDigest {
		t.Fatalf("global digest diverged under scraping: %x vs %x", plainDigest, tracedDigest)
	}
	for i := range plain {
		a, b := plain[i], traced[i]
		if a.Epoch != b.Epoch || a.TestAccuracy != b.TestAccuracy ||
			a.Accepted != b.Accepted || a.Rejected != b.Rejected ||
			a.DetectedAdversaries != b.DetectedAdversaries ||
			a.MissedAdversaries != b.MissedAdversaries ||
			a.FalseRejections != b.FalseRejections ||
			a.VerifyCommBytes != b.VerifyCommBytes ||
			a.ReexecSteps != b.ReexecSteps {
			t.Errorf("epoch %d diverged under scraping\nplain:  %+v\nscraped: %+v", i, a, b)
		}
	}

	// And the streams must have actually carried the run.
	if deltaPolls == 0 || !sawCounters {
		t.Errorf("scraper made %d polls, sawCounters=%v", deltaPolls, sawCounters)
	}
	if len(eventSeqs) == 0 {
		t.Fatal("no events streamed during the run")
	}
	for i := 1; i < len(eventSeqs); i++ {
		if eventSeqs[i] <= eventSeqs[i-1] {
			t.Fatalf("event seqs not monotonic: %d then %d", eventSeqs[i-1], eventSeqs[i])
		}
	}
	// The run's load-bearing kinds reached the log: one seal per epoch and
	// the adversary's rejections.
	seal, ok := events.Last(obs.EventEpochSealed)
	if !ok || seal.Epoch != epochs-1 {
		t.Errorf("last seal = %+v, %v", seal, ok)
	}
	if _, ok := events.Last(obs.EventVerdictRejected); !ok {
		t.Error("no verdict_rejected event despite an adversary")
	}
	if _, ok := events.Last(obs.EventVerdictAccepted); !ok {
		t.Error("no verdict_accepted event")
	}
}

func utoa(v uint64) string { return strconv.FormatUint(v, 10) }
