package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"sync/atomic"
	"time"

	"rpol/internal/obs"
)

// FaultPlan is a deterministic fault-injection schedule for the message
// hub: per-link drop, delay, and partition decisions, plus per-worker
// crash-restart windows. Every decision is a pure function of (seed, link or
// worker identity, ordinal), never of arrival order, goroutine scheduling,
// or the wall clock — so two runs with the same seed replay the exact same
// fault sequence bit-identically, which is what lets the protocol's
// fault-tolerance tests assert identical EpochStats across replays.
//
// A nil *FaultPlan is valid and injects nothing; every method is nil-safe,
// so the hub pays a single pointer check on the fault-free path.
type FaultPlan struct {
	seed int64
	cfg  FaultConfig
}

// FaultConfig parameterizes a FaultPlan. Rates are probabilities in [0, 1];
// a zero config injects nothing even with a non-zero seed.
type FaultConfig struct {
	// DropRate is the per-message probability that a delivery is lost in
	// transit. The send still succeeds; the hub then sends both ends a
	// KindLost notice in place of the timer a real caller would run.
	DropRate float64
	// DelayRate is the fraction of deliveries that incur injected transit
	// delay. The delay advances the hub's logical clock and is metered, but
	// the message is delivered: a delay never fails an exchange.
	DelayRate float64
	// MaxDelay bounds one injected transit delay. The actual delay of a
	// delayed message is a deterministic value in (0, MaxDelay].
	MaxDelay time.Duration
	// PartitionRate is the per-(link, window) probability that a link is
	// partitioned for a whole window of PartitionWindow messages; partitioned
	// links drop everything.
	PartitionRate float64
	// PartitionWindow is the number of consecutive messages on a link that
	// share one partition decision (default 64).
	PartitionWindow uint64
	// CrashRate is the per-(worker, cycle) probability that the worker
	// crashes during a cycle of CrashPeriod epochs.
	CrashRate float64
	// CrashPeriod is the length, in epochs, of one crash-decision cycle
	// (default 4).
	CrashPeriod uint64
	// MaxCrashLen bounds one crash-restart window, in epochs (default 2):
	// a crashed worker is absent for 1..MaxCrashLen consecutive epochs of
	// its cycle and then restarts.
	MaxCrashLen uint64
}

// DefaultFaultConfig is the moderate fault mix the -faultseed flag applies:
// a few percent of messages lost or delayed, occasional short partitions,
// and workers that crash for an epoch or two within every four-epoch cycle
// about a quarter of the time.
func DefaultFaultConfig() FaultConfig {
	return FaultConfig{
		DropRate:        0.05,
		DelayRate:       0.10,
		MaxDelay:        5 * time.Millisecond,
		PartitionRate:   0.02,
		PartitionWindow: 64,
		CrashRate:       0.25,
		CrashPeriod:     4,
		MaxCrashLen:     2,
	}
}

// NewFaultPlan derives a plan from the seed. The same (seed, cfg) always
// yields the same schedule.
func NewFaultPlan(seed int64, cfg FaultConfig) *FaultPlan {
	if cfg.PartitionWindow == 0 {
		cfg.PartitionWindow = 64
	}
	if cfg.CrashPeriod == 0 {
		cfg.CrashPeriod = 4
	}
	if cfg.MaxCrashLen == 0 {
		cfg.MaxCrashLen = 2
	}
	if cfg.MaxCrashLen > cfg.CrashPeriod {
		cfg.MaxCrashLen = cfg.CrashPeriod
	}
	return &FaultPlan{seed: seed, cfg: cfg}
}

// Fault is one delivery's injected behaviour.
type Fault struct {
	// Drop loses the message in transit.
	Drop bool
	// Delay is the injected transit time (zero when not delayed).
	Delay time.Duration
}

// Decide returns the fault injected into the seq-th message on the from→to
// link: a partition- or loss-induced drop, an injected delay, or nothing.
// seq must be a per-link ordinal maintained by the hub; given the hub
// delivers each link's messages in a deterministic order, the whole fault
// sequence replays identically.
func (p *FaultPlan) Decide(from, to string, seq uint64) Fault {
	if p == nil {
		return Fault{}
	}
	if p.cfg.PartitionRate > 0 &&
		p.uniform("partition", from, to, seq/p.cfg.PartitionWindow) < p.cfg.PartitionRate {
		return Fault{Drop: true}
	}
	if p.cfg.DropRate > 0 && p.uniform("drop", from, to, seq) < p.cfg.DropRate {
		return Fault{Drop: true}
	}
	if p.cfg.DelayRate > 0 && p.cfg.MaxDelay > 0 &&
		p.uniform("delay", from, to, seq) < p.cfg.DelayRate {
		frac := p.uniform("delay-len", from, to, seq)
		d := time.Duration(frac * float64(p.cfg.MaxDelay))
		if d <= 0 {
			d = time.Nanosecond
		}
		return Fault{Delay: d}
	}
	return Fault{}
}

// WorkerDown reports whether the plan's crash-restart schedule has worker id
// down for the whole of epoch e. Epochs are grouped into cycles of
// CrashPeriod; a crashed cycle knocks the worker out for a deterministic
// window of 1..MaxCrashLen epochs within it, after which it restarts.
func (p *FaultPlan) WorkerDown(id string, epoch int) bool {
	if p == nil || p.cfg.CrashRate <= 0 || epoch < 0 {
		return false
	}
	cycle := uint64(epoch) / p.cfg.CrashPeriod
	if p.uniform("crash", id, "", cycle) >= p.cfg.CrashRate {
		return false
	}
	start := p.hash("crash-start", id, "", cycle) % p.cfg.CrashPeriod
	length := 1 + p.hash("crash-len", id, "", cycle)%p.cfg.MaxCrashLen
	offset := uint64(epoch) % p.cfg.CrashPeriod
	return offset >= start && offset < start+length
}

// hash mixes the seed with the decision's identity into 64 uniform bits.
func (p *FaultPlan) hash(kind, a, b string, n uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(p.seed))
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(kind))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(a))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(b))
	_, _ = h.Write([]byte{0})
	binary.BigEndian.PutUint64(buf[:], n)
	_, _ = h.Write(buf[:])
	return splitmix64(h.Sum64())
}

// uniform maps a decision's hash to [0, 1).
func (p *FaultPlan) uniform(kind, a, b string, n uint64) float64 {
	return float64(p.hash(kind, a, b, n)>>11) / float64(uint64(1)<<53)
}

// splitmix64 is the finalizer of the SplitMix64 generator: a strong 64-bit
// mix that decorrelates the structured FNV input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// defaultFaultPlan is the process-wide fallback plan, installed by the
// -faultseed flag (as -jobs installs the process compute setting) so pools
// constructed deep inside experiment runners pick it up without threading a
// plan through every options struct. It starts nil: no faults.
var defaultFaultPlan atomic.Pointer[FaultPlan]

// DefaultFaultPlan returns the process-wide plan, nil when none installed.
func DefaultFaultPlan() *FaultPlan { return defaultFaultPlan.Load() }

// SetDefaultFaultPlan installs the process-wide plan; nil disables it.
func SetDefaultFaultPlan(p *FaultPlan) { defaultFaultPlan.Store(p) }

// advancer is the optional clock surface injected delays act on: the hub
// moves logical time forward by the transit delay. obs.SimClock implements
// it; clocks that don't are left untouched (the delay is then accounting
// only).
type advancer interface {
	Advance(d time.Duration)
}

// publishFault mirrors an injected fault into the process-wide default
// observer's event log, if any. Unobserved hubs pay one nil check on the
// (already rare) fault path.
func publishFault(what, msgKind, from, to string) {
	events := obs.Default().Events()
	if events == nil {
		return
	}
	events.Publish(obs.StreamEvent{
		Kind:   obs.EventFaultInjected,
		Worker: to,
		Detail: what + " " + msgKind + " " + from + "->" + to,
	})
}
