// Fleet-scale simulation: the public surface of internal/fleet. A System
// can run an open-system arrival stream across a whole cluster of
// identical machines — cluster-level dispatch choosing the machine, the
// per-machine placement policy choosing the threads — with streaming
// metric aggregation whose memory is O(machines + classes + in-flight
// jobs), independent of how many jobs pass through.
package synpa

import (
	"fmt"

	"synpa/internal/fleet"
	"synpa/internal/machine"
	"synpa/internal/workload"
)

// TraceStream yields trace entries in arrival order; the fleet consumes
// arrivals lazily, so a stream can be generated on the fly and never
// materialised.
type TraceStream = workload.TraceStream

// StreamTrace adapts a materialised Trace into a stream (entries are
// yielded in arrival order; the trace is not modified).
func StreamTrace(t Trace) TraceStream { return workload.StreamTrace(t) }

// PoissonStream is the lazy equivalent of PoissonTrace: the identical
// arrival sequence for identical parameters, in O(1) memory.
func PoissonStream(name string, seed uint64, pool []string, n int, meanGapCycles, work float64) TraceStream {
	return workload.PoissonStream(name, seed, pool, n, meanGapCycles, work)
}

// CollectTrace materialises a stream into a Trace (max 0 = no bound) —
// the bridge from the fleet's streaming sources back to the closed-system
// RunDynamic API.
func CollectTrace(ts TraceStream, max int) Trace { return workload.Collect(ts, max) }

// PoissonStreamMixed is the lazy equivalent of PoissonTraceMixed.
func PoissonStreamMixed(name string, seed uint64, pool []string, n int, meanGapCycles, work float64, mix []ClassShare) TraceStream {
	return workload.PoissonStreamMixed(name, seed, pool, n, meanGapCycles, work, mix)
}

// Fleet dispatch-policy names.
const (
	DispatchRoundRobin   = fleet.DispatchRoundRobin
	DispatchLeastLoaded  = fleet.DispatchLeastLoaded
	DispatchInterference = fleet.DispatchInterference
)

// FleetDispatchers lists the valid dispatch-policy names.
func FleetDispatchers() []string { return fleet.Dispatchers() }

// FleetConfig describes a cluster run on top of a System's machine
// configuration.
type FleetConfig struct {
	// Machines is the cluster size (every machine uses the System's
	// configuration).
	Machines int
	// Dispatch names the cluster-level dispatch policy: "round-robin",
	// "least-loaded" (default) or "interference".
	Dispatch string
	// Model is the trained interference model; required by interference
	// dispatch, which characterises each application by its isolated
	// category fractions and sends arrivals where the model predicts the
	// least mutual degradation.
	Model *Model
	// NewPolicy builds machine i's placement policy; policies hold
	// per-machine state, so every machine gets its own instance.
	NewPolicy func(i int) Policy
	// MaxCycles bounds the run (0 = the machine default). Arrivals at or
	// beyond the bound are never dispatched (FleetReport.Truncated).
	MaxCycles uint64
	// SharedCache, when non-nil, is installed into every policy that
	// supports it (the SYNPA policy does): one concurrent inversion memo
	// warms across the whole fleet; without it every machine inverts
	// directly. Bit-identical by construction; see NewSharedPredCache.
	SharedCache *SharedPredCache
}

// FleetReport is the streaming-aggregated outcome of a cluster run.
type FleetReport = fleet.Report

// FleetClassReport is one priority class's fleet metrics.
type FleetClassReport = fleet.ClassReport

// RunFleet executes an arrival stream across a cluster: each job is
// dispatched to a machine as it arrives, queues under the System's
// admission discipline, is placed by that machine's policy and departs on
// completion. Results are bit-identical at every worker count, and a
// single-machine fleet reproduces RunDynamic exactly.
func (s *System) RunFleet(cfg FleetConfig, stream TraceStream) (*FleetReport, error) {
	if stream == nil {
		return nil, fmt.Errorf("synpa: nil trace stream")
	}
	if cfg.NewPolicy == nil {
		return nil, fmt.Errorf("synpa: nil placement-policy factory")
	}
	// Only interference dispatch needs per-application category
	// characterisation; skip the extra isolated-counter work otherwise.
	var model *Model
	if cfg.Dispatch == fleet.DispatchInterference {
		model = cfg.Model
	}
	src := fleet.NewTraceSource(s.targets, stream, model, s.machCfg.Core.DispatchWidth)
	return fleet.Run(fleet.Config{
		Machines:    cfg.Machines,
		Machine:     s.machCfg,
		NewPolicy:   func(i int) machine.Policy { return cfg.NewPolicy(i) },
		Dispatch:    cfg.Dispatch,
		Model:       cfg.Model,
		Admission:   s.cfg.Admission,
		Seed:        s.cfg.Seed,
		MaxCycles:   cfg.MaxCycles,
		SharedCache: cfg.SharedCache,
		Workers:     s.cfg.Workers,
		Obs:         s.cfg.Obs,
	}, src)
}
