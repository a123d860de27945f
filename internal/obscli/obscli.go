// Package obscli wires the runtime flag surface shared by the rpolbench
// and rpolsim commands: -metrics, -table, -trace, -serve, -pprof,
// -wallclock, -jobs, and -faultseed. It builds the obs.Observer those flags
// describe, installs it as the process-wide default (so pools constructed
// deep inside experiment runners record into it), installs the -jobs
// compute default and the -faultseed fault plan, starts the live exposition
// and profiling servers, and renders the snapshot when the run finishes.
package obscli

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // -pprof registers the profiling handlers
	"os"
	"time"

	"rpol/internal/netsim"
	"rpol/internal/obs"
	"rpol/internal/obshttp"
	"rpol/internal/parallel"
)

// Options holds the parsed observability flags.
type Options struct {
	// Metrics prints a text metrics snapshot after the run.
	Metrics bool
	// Table renders the snapshot (and per-phase counters) as a box-drawing
	// table instead of the plain text exposition. Implies Metrics.
	Table bool
	// TraceFile receives the JSONL span trace when non-empty.
	TraceFile string
	// Serve exposes the live observability plane (/metrics, /snapshot,
	// /delta, /events, /healthz) on this address while the run is in
	// flight (e.g. "localhost:7070"). Implies an observer with an event
	// log attached.
	Serve string
	// PprofAddr serves net/http/pprof when non-empty (e.g. "localhost:6060").
	PprofAddr string
	// WallClock timestamps trace spans with real elapsed time instead of the
	// deterministic simulated clock.
	WallClock bool
	// Jobs is the process's one compute setting (parallel.SetDefaultWorkers):
	// every training runtime the process builds — its workers', the
	// manager's calibration probes and verification replays, an
	// experiment's own trainers — reads it once and spreads its GEMM
	// kernels over that many goroutines. 0 runs them on the calling
	// goroutine; the results are bit-identical for every value.
	Jobs int
	// FaultSeed seeds the process-wide deterministic fault plan
	// (netsim.DefaultFaultConfig rates): injected message drops/delays and
	// worker crash-restart windows, replayed bit-identically for the same
	// seed. 0 (the default) injects no faults.
	FaultSeed int64

	// BoundServe and BoundPprof are the resolved listen addresses after
	// Setup (":0" ports filled in); empty when the server was not requested.
	BoundServe string
	BoundPprof string
}

// DefaultMaxSealAge is the /healthz liveness threshold a -serve endpoint
// enforces: the run reports unhealthy when no epoch has sealed for this
// long on the event log's clock.
const DefaultMaxSealAge = 2 * time.Minute

// shutdownTimeout bounds how long finish waits for in-flight scrapes
// before force-closing the exposition and pprof listeners.
const shutdownTimeout = 2 * time.Second

// Register declares the flags on fs (the default flag.CommandLine in main).
func (o *Options) Register(fs *flag.FlagSet) {
	fs.BoolVar(&o.Metrics, "metrics", false, "print a metrics snapshot after the run")
	fs.BoolVar(&o.Table, "table", false, "render the metrics snapshot as a box-drawing table (implies -metrics)")
	fs.StringVar(&o.TraceFile, "trace", "", "write a JSONL span trace to this file")
	fs.StringVar(&o.Serve, "serve", "", "serve live metrics/events HTTP endpoints on this address (e.g. localhost:7070)")
	fs.StringVar(&o.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.BoolVar(&o.WallClock, "wallclock", false, "timestamp trace spans with wall time (non-deterministic) instead of simulated time")
	fs.IntVar(&o.Jobs, "jobs", 0, "goroutines each training runtime in this process spreads its kernels over (0 = serial; results are bit-identical for every value)")
	fs.Int64Var(&o.FaultSeed, "faultseed", 0, "seed for deterministic fault injection (pool worker crash-restart windows); 0 disables, same seed replays identically")
}

// enabled reports whether any flag asks for an observer.
func (o *Options) enabled() bool {
	return o.Metrics || o.Table || o.TraceFile != "" || o.Serve != ""
}

// ProtocolClock returns the clock experiment timings should read: an
// obs.WallClock when -wallclock was set, nil otherwise (callers fall back
// to their deterministic SimClock default). This is the only sanctioned
// route from real time into experiment measurements; rpolvet's nowallclock
// analyzer rejects direct time.Now use in protocol code.
func (o *Options) ProtocolClock() obs.Clock {
	if o.WallClock {
		return obs.NewWallClock()
	}
	return nil
}

// Setup builds the observer the options describe, installs it as the
// process-wide default, and starts the exposition and pprof servers if
// requested. The returned finish func must run after the workload: it
// prints the snapshot to out, closes the trace file, and shuts the HTTP
// servers down with a bounded deadline so no listener outlives the
// command. When no observability flag is set the observer is nil and
// finish is a no-op.
func (o *Options) Setup(out io.Writer) (*obs.Observer, func() error, error) {
	// -jobs and -faultseed configure process-wide defaults regardless of
	// whether any observability flag is set.
	parallel.SetDefaultWorkers(o.Jobs)
	if o.FaultSeed != 0 {
		netsim.SetDefaultFaultPlan(netsim.NewFaultPlan(o.FaultSeed, netsim.DefaultFaultConfig()))
	}
	var stops []func(timeout time.Duration) error
	if o.PprofAddr != "" {
		run, err := obshttp.Serve(o.PprofAddr, http.DefaultServeMux)
		if err != nil {
			return nil, nil, fmt.Errorf("pprof: %w", err)
		}
		fmt.Fprintln(os.Stderr, "pprof listening on", run.Addr)
		o.BoundPprof = run.Addr
		stops = append(stops, run.Shutdown)
	}
	stopAll := func() error {
		var first error
		for _, stop := range stops {
			if err := stop(shutdownTimeout); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	if !o.enabled() {
		return nil, stopAll, nil
	}

	reg := obs.NewRegistry()
	var (
		tracer    *obs.Tracer
		traceSink *os.File
	)
	if o.TraceFile != "" {
		f, err := os.Create(o.TraceFile)
		if err != nil {
			return nil, nil, fmt.Errorf("trace file: %w", err)
		}
		traceSink = f
		tracer = obs.NewTracer(f, o.ProtocolClock()) // nil clock selects the SimClock
	}
	observer := obs.NewObserver(reg, tracer)
	if o.Serve != "" {
		// The event log backing -serve runs on a wall clock: /healthz ages
		// the last seal against real time, which is what a liveness probe
		// means operationally. Event timestamps are operator-facing only —
		// the protocol's deterministic results never read them.
		events := obs.NewEvents(0, obs.NewWallClock())
		events.Observe(reg)
		observer.AttachEvents(events)
		run, err := obshttp.Serve(o.Serve, obshttp.NewServer(obshttp.Config{
			Observer:   observer,
			MaxSealAge: DefaultMaxSealAge,
		}).Handler())
		if err != nil {
			return nil, nil, fmt.Errorf("serve: %w", err)
		}
		fmt.Fprintln(os.Stderr, "observability plane listening on", run.Addr)
		o.BoundServe = run.Addr
		stops = append(stops, run.Shutdown)
	}
	obs.SetDefault(observer)

	finish := func() error {
		if o.Table {
			fmt.Fprint(out, obs.MetricsTable(reg.Snapshot()))
		} else if o.Metrics {
			if err := reg.Snapshot().WriteText(out); err != nil {
				return err
			}
		}
		if traceSink != nil {
			if err := traceSink.Close(); err != nil {
				return err
			}
			if err := tracer.Err(); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
		}
		return stopAll()
	}
	return observer, finish, nil
}
