package obshttp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rpol/internal/obs"
)

// newTestObserver builds an observer with a registry, an event log on a
// shared SimClock, and returns both.
func newTestObserver(capacity int) (*obs.Observer, *obs.SimClock) {
	clock := obs.NewSimClock(0)
	reg := obs.NewRegistry()
	o := obs.NewObserver(reg, nil)
	ev := obs.NewEvents(capacity, clock)
	ev.Observe(reg)
	o.AttachEvents(ev)
	return o, clock
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, body)
		}
	}
	return resp
}

func TestEndpoints(t *testing.T) {
	o, _ := newTestObserver(64)
	o.Counter("pool_epochs_total").Add(2)
	o.Gauge("pool_test_accuracy").Set(0.75)
	o.Publish(obs.StreamEvent{Kind: obs.EventEpochSealed, Epoch: 0})
	o.Publish(obs.StreamEvent{Kind: obs.EventVerdictRejected, Worker: "adv1-00", Epoch: 0})

	ts := httptest.NewServer(NewServer(Config{Observer: o}).Handler())
	defer ts.Close()

	// /metrics text exposition.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(text), "counter pool_epochs_total 2") {
		t.Errorf("/metrics text = %q", text)
	}

	// /metrics?format=json.
	var snap obs.Snapshot
	getJSON(t, ts.URL+"/metrics?format=json", &snap)
	if snap.Counters["pool_epochs_total"] != 2 || snap.Gauges["pool_test_accuracy"] != 0.75 {
		t.Errorf("/metrics json = %+v", snap)
	}

	// /snapshot carries a sequence number.
	var sr snapshotResponse
	getJSON(t, ts.URL+"/snapshot", &sr)
	if sr.Seq == 0 || sr.Snapshot.Counters["pool_epochs_total"] != 2 {
		t.Errorf("/snapshot = seq %d, %+v", sr.Seq, sr.Snapshot.Counters)
	}

	// /delta against that snapshot: only what changed since.
	o.Counter("pool_epochs_total").Add(3)
	var d obs.Delta
	getJSON(t, fmt.Sprintf("%s/delta?since=%d", ts.URL, sr.Seq), &d)
	if d.Full || d.Counters["pool_epochs_total"] != 3 || d.Seq <= sr.Seq {
		t.Errorf("/delta = %+v", d)
	}
	// since=0 degrades to a full state.
	getJSON(t, ts.URL+"/delta?since=0", &d)
	if !d.Full || d.Counters["pool_epochs_total"] != 5 {
		t.Errorf("full /delta = %+v", d)
	}

	// /events tail and incremental follow-up.
	var er eventsResponse
	getJSON(t, ts.URL+"/events", &er)
	if len(er.Events) != 2 || er.Latest != 2 || er.Dropped != 0 {
		t.Fatalf("/events = %+v", er)
	}
	if er.Events[1].Kind != obs.EventVerdictRejected || er.Events[1].Worker != "adv1-00" {
		t.Errorf("event tail = %+v", er.Events)
	}
	getJSON(t, fmt.Sprintf("%s/events?since=%d", ts.URL, er.Latest), &er)
	if len(er.Events) != 0 {
		t.Errorf("caught-up /events returned %d events", len(er.Events))
	}

	// Malformed since is a 400, not a panic.
	if resp := getJSON(t, ts.URL+"/events?since=banana", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad since → %d", resp.StatusCode)
	}

	// /healthz without a threshold is always healthy and reports the age.
	var hr HealthResponse
	if resp := getJSON(t, ts.URL+"/healthz", &hr); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}
	if !hr.Healthy || hr.Epochs != 1 || hr.Now == 0 {
		t.Errorf("/healthz = %+v", hr)
	}
}

// TestHealthzStallFlipsUnhealthy drives the logical clock past the seal-age
// threshold and watches /healthz flip to 503, then recover on the next seal.
func TestHealthzStallFlipsUnhealthy(t *testing.T) {
	o, clock := newTestObserver(64)
	ts := httptest.NewServer(NewServer(Config{Observer: o, MaxSealAge: time.Millisecond}).Handler())
	defer ts.Close()

	o.Publish(obs.StreamEvent{Kind: obs.EventEpochSealed, Epoch: 0})
	var hr HealthResponse
	if resp := getJSON(t, ts.URL+"/healthz", &hr); resp.StatusCode != http.StatusOK || !hr.Healthy {
		t.Fatalf("fresh seal reported unhealthy: %d %+v", resp.StatusCode, hr)
	}

	// The pool stalls: logical time marches on with no new seal.
	clock.Advance(10 * time.Millisecond)
	if resp := getJSON(t, ts.URL+"/healthz", &hr); resp.StatusCode != http.StatusServiceUnavailable || hr.Healthy {
		t.Fatalf("stalled pool reported healthy: %d %+v", resp.StatusCode, hr)
	}
	if hr.AgeNS <= int64(time.Millisecond) {
		t.Errorf("stalled age = %dns", hr.AgeNS)
	}

	// The next seal recovers liveness.
	o.Publish(obs.StreamEvent{Kind: obs.EventEpochSealed, Epoch: 1})
	if resp := getJSON(t, ts.URL+"/healthz", &hr); resp.StatusCode != http.StatusOK || !hr.Healthy || hr.Epochs != 2 {
		t.Fatalf("recovered pool reported unhealthy: %d %+v", resp.StatusCode, hr)
	}
}

// TestNilObserverServesEmpty probes every endpoint with observability
// fully disabled: valid empty responses, no panics.
func TestNilObserverServesEmpty(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	var sr snapshotResponse
	getJSON(t, ts.URL+"/snapshot", &sr)
	if s := sr.Snapshot; len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("nil observer snapshot = %+v", sr.Snapshot)
	}
	var er eventsResponse
	getJSON(t, ts.URL+"/events", &er)
	if len(er.Events) != 0 {
		t.Errorf("nil observer events = %+v", er)
	}
	var hr HealthResponse
	if resp := getJSON(t, ts.URL+"/healthz", &hr); resp.StatusCode != http.StatusOK {
		t.Errorf("nil observer healthz status %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/metrics?format=json", &obs.Snapshot{})
	getJSON(t, ts.URL+"/delta", &obs.Delta{})
}

// TestServeShutdownReleasesListener binds a real listener and proves
// Shutdown tears it down: the next request must fail to connect.
func TestServeShutdownReleasesListener(t *testing.T) {
	o, _ := newTestObserver(64)
	run, err := Serve("localhost:0", NewServer(Config{Observer: o}).Handler())
	if err != nil {
		t.Fatal(err)
	}
	var hr HealthResponse
	if resp := getJSON(t, "http://"+run.Addr+"/healthz", &hr); resp.StatusCode != http.StatusOK {
		t.Fatalf("serving endpoint returned %d", resp.StatusCode)
	}
	if err := run.Shutdown(time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + run.Addr + "/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
	if err := run.Shutdown(time.Second); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}
