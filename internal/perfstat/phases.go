// Package perfstat attributes wall time to the simulator's layers: a
// process-global, concurrency-safe set of nanosecond accumulators that
// split a run's wall time into allocation-policy time, core-simulation
// time, matching/grouping solver time and fleet dispatch time. Collection
// is off by default and switched on by the repository benchmark
// (perfbench, for its per-layer figures); when disabled, an
// instrumentation site costs one atomic load.
//
// The accumulators live in the global obs.Registry ("phase.<name>.nanos"
// counters) — the single source of truth that synpa-bench -metrics-out
// snapshots — and PhaseSeconds is a view over them, so the phase split and
// the registry can never drift. The wall-clock reads stay in this package
// (perfstat is outside the nondet lint core by design); obs itself only
// ever sees the accumulated nanos.
package perfstat

import (
	"sync/atomic"
	"time"

	"synpa/internal/obs"
)

// Phase identifies one instrumented layer.
type Phase int32

const (
	// PhasePolicy covers Policy.Place invocations (which include the
	// matching/grouping time below — PhaseMatching is a refinement, not a
	// disjoint bucket).
	PhasePolicy Phase = iota
	// PhaseSimulation covers core stepping: quantum execution in machine
	// runs and the isolated/pair collection runs of training.
	PhaseSimulation
	// PhaseMatching covers the Step-3 solvers (blossom/brute-force/greedy
	// matching and the grouping partition), a subset of PhasePolicy.
	PhaseMatching
	// PhaseDispatch covers the fleet's cluster-level scheduling: dispatch
	// decisions, event-clock bookkeeping and streaming-aggregation merges
	// — everything the coordinator does serially between machine slices.
	PhaseDispatch
	numPhases
)

// phaseNames index by Phase in report output.
var phaseNames = [numPhases]string{"policy", "simulation", "matching", "dispatch"}

var (
	phasesOn atomic.Bool
	// phaseNanos are the registry-owned accumulators, resolved once: the
	// counter named "phase.<name>.nanos" in obs.Global().
	phaseNanos [numPhases]*obs.Counter
)

func init() {
	for i := Phase(0); i < numPhases; i++ {
		phaseNanos[i] = obs.Global().Counter("phase." + phaseNames[i] + ".nanos")
	}
}

// EnablePhases switches phase collection on or off and resets the
// accumulators when switching on.
func EnablePhases(on bool) {
	if on {
		ResetPhases()
	}
	phasesOn.Store(on)
}

// ResetPhases zeroes the accumulators.
func ResetPhases() {
	for i := range phaseNanos {
		phaseNanos[i].Reset()
	}
}

// PhaseClock returns the start time for an instrumented region, or a zero
// time when collection is off (PhaseAdd then no-ops). Call sites pay one
// atomic load when disabled.
func PhaseClock() time.Time {
	if !phasesOn.Load() {
		return time.Time{}
	}
	return time.Now()
}

// PhaseAdd accrues the elapsed time since start (a PhaseClock result) to
// the phase. A zero start — collection disabled — is ignored.
func PhaseAdd(p Phase, start time.Time) {
	if start.IsZero() {
		return
	}
	phaseNanos[p].Add(int64(time.Since(start)))
}

// PhaseSeconds returns the per-phase accumulated wall seconds, keyed by
// phase name, or nil when no phase has accrued time. It is a pure view
// over the registry counters.
func PhaseSeconds() map[string]float64 {
	var out map[string]float64
	for i := Phase(0); i < numPhases; i++ {
		if ns := phaseNanos[i].Value(); ns > 0 {
			if out == nil {
				out = make(map[string]float64, int(numPhases))
			}
			out[phaseNames[i]] = time.Duration(ns).Seconds()
		}
	}
	return out
}
