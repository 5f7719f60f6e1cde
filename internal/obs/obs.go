// Package obs is the run-scoped tracing and metrics layer: per-decision
// visibility into quantum lifecycles, placements and dispatch without
// giving up the repository's bit-identity invariant.
//
// Deterministic by construction. Every span and event is stamped with
// *simulated* event time — cycles and quantum indices threaded in by the
// engines — never the wall clock, so this package is subject to the full
// `synpa-lint nondet` rule set (it is a corePackages member) and trace
// output is a pure function of Config + seed. The same run produces
// byte-identical trace and metrics output at every worker count, which the
// differential tests pin at Workers 1 vs 4.
//
// Worker-count invariance rests on the PR-4/PR-6 parallel-merge invariant:
// events are emitted only from coordinator-serial code (admission,
// planning, dispatch, slice finish), never from the parallel quantum step,
// and land first in per-machine shard buffers (MachineTrace). The
// coordinator drains the shards into the global Trace at the existing
// quantum/slice barriers in fixed ascending machine order; within a shard,
// events are naturally ordered by (t, core) because each machine's
// lifecycle calls advance its clock monotonically and iterate cores in
// index order. The merged stream order is therefore (t, machine, core)
// within every barrier window, independent of scheduling.
//
// Cost when disabled. A disabled site is a nil-receiver no-op: one nil
// check on a *Counter, *Histogram or *MachineTrace — the same budget as
// the perfstat.PhaseClock idiom's single atomic load. Engines resolve
// their counters once up front (RunCounters), so no instrumented site pays
// a map lookup.
package obs

// Observer bundles the two run-scoped sinks: an event trace and a metrics
// registry. Either may be nil — a nil trace disables event emission, a nil
// registry disables counters — and a nil *Observer disables both.
type Observer struct {
	// Trace receives the run's event stream; nil disables tracing.
	Trace *Trace
	// Reg receives the run's counters, gauges and histograms; nil
	// disables metrics.
	Reg *Registry
}

// NewObserver builds an observer with a fresh registry and a trace bounded
// at maxEvents (0 selects DefaultMaxEvents).
func NewObserver(maxEvents int) *Observer {
	return &Observer{Trace: NewTrace(maxEvents), Reg: NewRegistry()}
}

// Machine derives machine i's emission handle: its trace shard and the
// shared run counters. Safe on a nil Observer (fully disabled view).
func (o *Observer) Machine(i int) MachineView {
	if o == nil {
		return MachineView{rc: &disabledCounters}
	}
	return MachineView{mt: o.Trace.Machine(i), rc: o.Reg.RunCounters()}
}

// Counters resolves the observer's run counters directly — the fleet
// coordinator's handle for machine-independent counters (dispatch). Never
// nil; the disabled set on a nil observer or registry.
func (o *Observer) Counters() *RunCounters {
	if o == nil {
		return &disabledCounters
	}
	return o.Reg.RunCounters()
}

// MachineView is one machine's handle into the observer: the shard buffer
// it emits events through and the pre-resolved registry counters. The zero
// value is a valid, fully disabled view.
type MachineView struct {
	mt *MachineTrace
	rc *RunCounters
}

// Trace returns the machine's shard buffer, or nil when tracing is off —
// engines guard event construction on it.
func (v MachineView) Trace() *MachineTrace { return v.mt }

// Counters returns the run counters; never nil, but possibly the disabled
// set whose fields are nil no-ops.
func (v MachineView) Counters() *RunCounters {
	if v.rc == nil {
		return &disabledCounters
	}
	return v.rc
}
