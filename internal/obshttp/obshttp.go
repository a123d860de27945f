// Package obshttp exposes a running pool's observability plane over HTTP:
// the live counterpart of the end-of-run dumps internal/obs renders. It
// serves the registry as text or JSON (/metrics), sequence-numbered full
// snapshots (/snapshot), increments between captures (/delta?since=seq),
// the ring-buffered event tail (/events?since=seq), and a protocol
// liveness probe (/healthz) keyed to the age of the last sealed epoch
// under the logical clock.
//
// The exposition is strictly passive: handlers only read the registry and
// the event ring under their own short locks, so a scraper — or a stalled
// one — can never change protocol results. A seeded run produces identical
// EpochStats and global-model digests with and without a live consumer
// attached (proven by TestServeIsPassive).
package obshttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"rpol/internal/obs"
)

// Config assembles a Server.
type Config struct {
	// Observer supplies the registry and event log to expose. A nil
	// observer (or missing pieces) serves empty data rather than failing:
	// an operator probing a pool with observability disabled gets valid,
	// empty responses.
	Observer *obs.Observer
	// MaxSealAge is the /healthz liveness threshold: the pool is unhealthy
	// when the last epoch_sealed event (or the server's start, before the
	// first seal) is older than this under the event log's clock. Zero
	// disables the check — /healthz then always reports healthy and only
	// carries the age for operators to judge.
	MaxSealAge time.Duration
	// History bounds the retained delta captures (0 = default 64).
	History int
}

// Server is the observability HTTP surface. Create with NewServer, mount
// via Handler, or bind a listener with Serve.
type Server struct {
	obs     *obs.Observer
	stream  *obs.MetricsStream
	maxAge  time.Duration
	startTS int64
}

// NewServer builds the exposition surface over cfg.Observer.
func NewServer(cfg Config) *Server {
	o := cfg.Observer
	s := &Server{
		obs:    o,
		stream: obs.NewMetricsStream(o.Registry(), cfg.History),
		maxAge: cfg.MaxSealAge,
	}
	if clock := o.Events().Clock(); clock != nil {
		// Anchor liveness before the first seal at the server's start.
		s.startTS = clock.Now()
	}
	return s
}

// Handler returns the route mux: /metrics, /snapshot, /delta, /events,
// /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/delta", s.handleDelta)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// handleMetrics serves the registry in the text exposition format, or as
// the snapshot's JSON with ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.obs.Registry().Snapshot()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = snap.WriteText(w)
}

// snapshotResponse is the /snapshot payload.
type snapshotResponse struct {
	Seq      uint64       `json:"seq"`
	Snapshot obs.Snapshot `json:"snapshot"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	seq, snap := s.stream.Capture()
	writeJSON(w, snapshotResponse{Seq: seq, Snapshot: snap})
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	since, ok := sinceParam(w, r)
	if !ok {
		return
	}
	writeJSON(w, s.stream.DeltaSince(since))
}

// eventsResponse is the /events payload: the retained tail after Since,
// the newest sequence number (pass it back as the next ?since), and how
// many requested events had already been overwritten.
type eventsResponse struct {
	Since   uint64            `json:"since"`
	Latest  uint64            `json:"latest"`
	Dropped uint64            `json:"dropped"`
	Events  []obs.StreamEvent `json:"events"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	since, ok := sinceParam(w, r)
	if !ok {
		return
	}
	evs, latest, dropped := s.obs.Events().Since(since)
	if evs == nil {
		evs = []obs.StreamEvent{}
	}
	writeJSON(w, eventsResponse{Since: since, Latest: latest, Dropped: dropped, Events: evs})
}

// HealthResponse is the /healthz payload. Exported so rpoltop and tests
// decode the same shape the handler encodes.
type HealthResponse struct {
	Healthy bool `json:"healthy"`
	// Epochs is the last sealed epoch number + 1 (0 before the first seal).
	Epochs int64 `json:"epochs"`
	// LastSealTS and Now are logical-clock readings; AgeNS their distance.
	// Before the first seal, LastSealTS is the server's start reading.
	LastSealTS int64 `json:"lastSealTs"`
	Now        int64 `json:"now"`
	AgeNS      int64 `json:"ageNs"`
	// MaxAgeNS echoes the configured threshold (0 = liveness not enforced).
	MaxAgeNS int64 `json:"maxAgeNs"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{Healthy: true, LastSealTS: s.startTS, MaxAgeNS: int64(s.maxAge)}
	events := s.obs.Events()
	if seal, ok := events.Last(obs.EventEpochSealed); ok {
		resp.LastSealTS = seal.TS
		resp.Epochs = seal.Epoch + 1
	}
	if clock := events.Clock(); clock != nil {
		resp.Now = clock.Now()
		resp.AgeNS = resp.Now - resp.LastSealTS
	}
	if s.maxAge > 0 && resp.AgeNS > int64(s.maxAge) {
		resp.Healthy = false
	}
	if !resp.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
		// WriteHeader must precede the body; writeJSON only sets the
		// content type header, which is allowed after.
	}
	writeJSON(w, resp)
}

// sinceParam parses ?since=N (default 0), rejecting malformed values.
func sinceParam(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	raw := r.URL.Query().Get("since")
	if raw == "" {
		return 0, true
	}
	since, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad since %q: %v", raw, err), http.StatusBadRequest)
		return 0, false
	}
	return since, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Running is a bound, serving HTTP endpoint.
type Running struct {
	// Addr is the actual listen address (resolves ":0" ports).
	Addr string
	srv  *http.Server
}

// Serve binds addr and serves h in a background goroutine. A bind failure
// returns here, so a mistyped address fails the command instead of a
// goroutine racing its exit. Shutdown must be called to release the
// listener.
func Serve(addr string, h http.Handler) (*Running, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return &Running{Addr: ln.Addr().String(), srv: srv}, nil
}

// Shutdown gracefully stops the server, waiting at most timeout for
// in-flight requests, then force-closes. Safe to call more than once.
func (r *Running) Shutdown(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		return r.srv.Close()
	}
	return err
}
