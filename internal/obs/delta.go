package obs

import "sync"

// Delta is the change between two registry snapshots: counters by how much
// they grew, gauges and histograms by their new state when they moved. A
// delta computed against the zero snapshot (Full set) is the full snapshot
// re-expressed as a delta, which is what a consumer gets when its reference
// point has aged out of the stream's history.
type Delta struct {
	// Since is the sequence number the delta is relative to (0 = from
	// empty); Seq identifies the capture the delta runs up to.
	Since uint64 `json:"since"`
	Seq   uint64 `json:"seq"`
	// Full marks a delta whose Since capture was no longer retained: the
	// payload is the complete current state, not an increment.
	Full       bool                         `json:"full,omitempty"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// DiffSnapshots computes cur − prev: counters that grew (by the increment),
// gauges whose bits changed (new value), and histograms that absorbed new
// observations (per-bucket count increments, sum increment). Instruments
// that first appear in cur are reported whole.
func DiffSnapshots(prev, cur Snapshot) Delta {
	d := Delta{}
	for name, v := range cur.Counters {
		if inc := v - prev.Counters[name]; inc != 0 {
			if d.Counters == nil {
				d.Counters = make(map[string]int64)
			}
			d.Counters[name] = inc
		}
	}
	for name, v := range cur.Gauges {
		old, ok := prev.Gauges[name]
		// Bit-level comparison: a gauge is "changed" exactly when Set stored
		// different bits, so no rounding tolerance applies here.
		if !ok || old != v {
			if d.Gauges == nil {
				d.Gauges = make(map[string]float64)
			}
			d.Gauges[name] = v
		}
	}
	for name, h := range cur.Histograms {
		old, ok := prev.Histograms[name]
		if ok && old.Count == h.Count {
			continue
		}
		inc := HistogramSnapshot{
			Bounds: append([]float64(nil), h.Bounds...),
			Counts: append([]int64(nil), h.Counts...),
			Sum:    h.Sum,
			Count:  h.Count,
		}
		if ok && len(old.Counts) == len(h.Counts) {
			for i := range inc.Counts {
				inc.Counts[i] -= old.Counts[i]
			}
			inc.Sum -= old.Sum
			inc.Count -= old.Count
		}
		if d.Histograms == nil {
			d.Histograms = make(map[string]HistogramSnapshot)
		}
		d.Histograms[name] = inc
	}
	return d
}

// Apply folds the delta into the snapshot, returning the advanced state:
// the inverse of DiffSnapshots, used by consumers that maintain a local
// mirror from a snapshot plus a delta stream.
func (s Snapshot) Apply(d Delta) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	if d.Full {
		s = Snapshot{} // the delta already carries the complete state
	}
	for name, v := range s.Counters {
		out.Counters[name] = v
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		out.Histograms[name] = HistogramSnapshot{
			Bounds: append([]float64(nil), h.Bounds...),
			Counts: append([]int64(nil), h.Counts...),
			Sum:    h.Sum,
			Count:  h.Count,
		}
	}
	for name, inc := range d.Counters {
		out.Counters[name] += inc
	}
	for name, v := range d.Gauges {
		out.Gauges[name] = v
	}
	for name, inc := range d.Histograms {
		cur, ok := out.Histograms[name]
		if !ok || len(cur.Counts) != len(inc.Counts) {
			out.Histograms[name] = HistogramSnapshot{
				Bounds: append([]float64(nil), inc.Bounds...),
				Counts: append([]int64(nil), inc.Counts...),
				Sum:    inc.Sum,
				Count:  inc.Count,
			}
			continue
		}
		for i := range cur.Counts {
			cur.Counts[i] += inc.Counts[i]
		}
		cur.Sum += inc.Sum
		cur.Count += inc.Count
		out.Histograms[name] = cur
	}
	return out
}

// MetricsStream issues consistent, sequence-numbered captures of one
// registry and serves deltas between any retained capture and the present.
// It is the pull side of live metrics: each consumer remembers only the
// last sequence number it saw and asks for "what changed since". Captures
// older than the history window age out; a delta against an aged-out
// capture degrades to a full snapshot (Delta.Full), never an error.
//
// It is safe for concurrent use and never blocks publishers: capturing
// reads the registry under the registry's own locking, exactly as a
// one-shot Snapshot does.
type MetricsStream struct {
	reg *Registry

	mu      sync.Mutex
	seq     uint64
	history []streamCapture // append-ordered, bounded to keep entries
	keep    int
}

// streamCapture is one retained (seq, snapshot) pair.
type streamCapture struct {
	seq  uint64
	snap Snapshot
}

// defaultStreamHistory bounds retained captures when NewMetricsStream gets
// keep <= 0: enough for several consumers polling at different cadences.
const defaultStreamHistory = 64

// NewMetricsStream wraps reg (which may be nil — captures are then empty).
func NewMetricsStream(reg *Registry, keep int) *MetricsStream {
	if keep <= 0 {
		keep = defaultStreamHistory
	}
	return &MetricsStream{reg: reg, keep: keep}
}

// Capture freezes the registry now, assigns the capture a sequence number,
// and retains it for future deltas.
func (m *MetricsStream) Capture() (uint64, Snapshot) {
	snap := m.reg.Snapshot()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	m.history = append(m.history, streamCapture{seq: m.seq, snap: snap})
	if len(m.history) > m.keep {
		m.history = m.history[len(m.history)-m.keep:]
	}
	return m.seq, snap
}

// DeltaSince captures the registry now and returns the change since the
// capture numbered since. since = 0 — or a sequence that has aged out of
// the history — yields the full state with Delta.Full set.
func (m *MetricsStream) DeltaSince(since uint64) Delta {
	seq, cur := m.Capture()
	var prev Snapshot
	found := false
	if since > 0 {
		m.mu.Lock()
		for _, c := range m.history {
			if c.seq == since {
				prev = c.snap
				found = true
				break
			}
		}
		m.mu.Unlock()
	}
	d := DiffSnapshots(prev, cur)
	d.Since = since
	d.Seq = seq
	d.Full = !found
	return d
}
