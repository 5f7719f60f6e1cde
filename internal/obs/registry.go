package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"

	"synpa/internal/stats"
)

// Counter is a monotonic (or reset-to-zero) integer metric. Adds are
// atomic, so parallel regions may bump counters freely: integer addition
// commutes, which keeps snapshot values identical at every worker count as
// long as the *set* of adds is deterministic. All methods are nil-safe
// no-ops, the disabled-path contract.
type Counter struct {
	v atomic.Int64
}

// Add accrues d. Nil-safe.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter. Nil-safe.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.v.Store(0)
}

// Gauge is a last-value integer metric. Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the last set value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a mergeable distribution metric backed by the
// internal/stats log-bucketed sketch plus running moments. Observations
// from parallel regions serialise on a mutex; bucket increments commute,
// so the snapshot is worker-count-invariant for a deterministic
// observation multiset.
type Histogram struct {
	mu  sync.Mutex
	sk  *stats.Sketch
	mom stats.Moments
}

// Observe folds one value in. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.sk.Add(v)
	h.mom.Add(v)
	h.mu.Unlock()
}

// HistStat is a histogram's snapshot: count, mean and sketch quantiles.
type HistStat struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// snapshot summarises the histogram.
func (h *Histogram) snapshot() HistStat {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistStat{Count: h.mom.Count()}
	if s.Count == 0 {
		return s
	}
	s.Mean = h.mom.Mean()
	s.Min, s.Max = h.sk.Min(), h.sk.Max()
	s.P50 = h.sk.Quantile(0.50)
	s.P90 = h.sk.Quantile(0.90)
	s.P99 = h.sk.Quantile(0.99)
	return s
}

// Registry names and owns a run's metrics. Lookups lazily register;
// engines resolve their metrics once up front (RunCounters), so the
// per-site cost is the Counter's own atomic.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	rcOnce sync.Once
	rc     *RunCounters
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, registering it on first use. Returns
// nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it on first use with
// the stats package's default sketch accuracy. Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{sk: stats.NewSketch(0)}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a registry's serialisable state. encoding/json renders map
// keys sorted, so two snapshots with equal values marshal to identical
// bytes — the property the metrics determinism tests compare.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters,omitempty"`
	Gauges     map[string]int64    `json:"gauges,omitempty"`
	Histograms map[string]HistStat `json:"histograms,omitempty"`
}

// Snapshot captures every registered metric. Nil-safe (empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistStat, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON (sorted keys, trailing
// newline) — the -metrics-out format.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// RunCounters are the registry metrics the engines bump, resolved once so
// every instrumented site costs one nil check plus one atomic. The
// zero/disabled set has nil fields throughout: every method call no-ops.
type RunCounters struct {
	enabled bool

	// Job lifecycle.
	JobsArrived, JobsAdmitted, JobsCompleted, JobsDeferred *Counter
	// Machine quantum lifecycle.
	Slices, PlaceCalls, Rebinds *Counter
	// Policy internals: inversion memo hit/miss deltas observed per
	// decision.
	InvertHits, InvertMisses *Counter
	// Fleet dispatch decisions.
	Dispatched *Counter
	// Core-engine cycle split (reference steps vs span engine vs bulk
	// fast-forward skips).
	StepCycles, SpanCycles, FFCycles *Counter
	// Distributions: admission-queue depth at each slice plan, response
	// cycles of each completed job.
	QueueDepth, ResponseCycles *Histogram
}

var disabledCounters RunCounters

// Enabled reports whether the counters are live — engines use it to skip
// delta computations whose results would be discarded.
func (rc *RunCounters) Enabled() bool { return rc != nil && rc.enabled }

// RunCounters resolves the engine counter set, once per registry. On a nil
// registry it returns the shared disabled set.
func (r *Registry) RunCounters() *RunCounters {
	if r == nil {
		return &disabledCounters
	}
	r.rcOnce.Do(func() {
		r.rc = &RunCounters{
			enabled:        true,
			JobsArrived:    r.Counter("jobs.arrived"),
			JobsAdmitted:   r.Counter("jobs.admitted"),
			JobsCompleted:  r.Counter("jobs.completed"),
			JobsDeferred:   r.Counter("jobs.deferred"),
			Slices:         r.Counter("machine.slices"),
			PlaceCalls:     r.Counter("policy.place_calls"),
			Rebinds:        r.Counter("policy.rebinds"),
			InvertHits:     r.Counter("predcache.invert.hits"),
			InvertMisses:   r.Counter("predcache.invert.misses"),
			Dispatched:     r.Counter("fleet.dispatched"),
			StepCycles:     r.Counter("smtcore.step_cycles"),
			SpanCycles:     r.Counter("smtcore.span_cycles"),
			FFCycles:       r.Counter("smtcore.ff_cycles"),
			QueueDepth:     r.Histogram("admission.queue_depth"),
			ResponseCycles: r.Histogram("jobs.response_cycles"),
		}
	})
	return r.rc
}

var (
	globalOnce sync.Once
	global     *Registry
)

// Global returns the process-wide registry: the home of cross-run metrics
// like the perfstat phase accumulators, and the registry synpa-bench
// -metrics-out snapshots.
func Global() *Registry {
	globalOnce.Do(func() { global = NewRegistry() })
	return global
}
