// Open-system (dynamic) workload execution: applications arrive over time,
// run to true completion and depart, and the machine operates at partial
// occupancy in between. The closed-system Run pins exactly len(models)
// applications for the whole experiment and relaunches them forever; this
// is the regime a production allocator on a real ThunderX2 faces instead
// (paper §V-A's user-level thread manager under job churn).
//
// Time advances in policy slices. A slice is normally one scheduling
// quantum, but an arrival that falls inside a quantum cuts the slice short
// at the arrival cycle, so admission re-invokes the policy off-quantum
// instead of leaving the newcomer parked until the next boundary.
//
// The engine itself lives in runner.go (DynRunner). RunDynamic is its
// single-machine open-system driver, Run (machine.go) its closed-system
// driver, and internal/fleet the many-machine one.
package machine

import (
	"fmt"
	"sort"

	"synpa/internal/admission"
	"synpa/internal/apps"
	"synpa/internal/obs"
)

// DynamicApp is one application of an open-system run.
type DynamicApp struct {
	// Model is the application model.
	Model *apps.Model
	// Target is the retired-instruction work the app performs before
	// departing. It must be positive: every open-system job is finite.
	Target uint64
	// ArriveAt is the cycle at which the application enters the system.
	ArriveAt uint64
	// Priority is the app's class (higher = more urgent, default 0);
	// priority-aware admission policies order the waiting queue on it.
	Priority int
	// Weight is the app's class weight for weighted throughput metrics;
	// zero means 1.
	Weight float64
}

// DynamicOptions tune an open-system run.
type DynamicOptions struct {
	// Seed derives every application's private random stream.
	Seed uint64
	// MaxCycles bounds the run; zero means DefaultMaxQuanta quanta.
	MaxCycles uint64
	// RecordPlacements keeps the per-slice placements (in global app-index
	// space, Unplaced for apps not live) in the result.
	RecordPlacements bool
	// Admission orders the waiting queue when arrivals exceed the free
	// hardware threads. Nil selects admission.FIFO — bit-identical to the
	// runner's historical inline queue.
	Admission admission.Policy
	// Obs, when non-nil, receives the run's event trace and metrics (the
	// single machine is machine 0). Tracing never perturbs the simulation.
	Obs *obs.Observer
}

// DynamicAppResult is one application's outcome in an open-system run.
type DynamicAppResult struct {
	// Name is the application's benchmark name.
	Name string
	// Target is the retired-instruction work.
	Target uint64
	// ArriveAt echoes the arrival cycle.
	ArriveAt uint64
	// Priority and Weight echo the app's class and class weight.
	Priority int
	Weight   float64
	// AdmittedAt is the cycle the app first got a hardware thread. It
	// exceeds ArriveAt when all threads were busy on arrival. Zero-valued
	// ArriveAt admissions are recorded as AdmittedAt == ArriveAt.
	AdmittedAt uint64
	// Admitted reports whether the app ever got a hardware thread.
	Admitted bool
	// Finished reports whether the app completed its target within the
	// run bound — the authoritative completion flag (FinishAt is a cycle
	// stamp, not a sentinel).
	Finished bool
	// FinishAt is the cycle the app completed its target; meaningless
	// when Finished is false.
	FinishAt uint64
	// ResponseCycles is FinishAt − ArriveAt (queueing + execution), the
	// open-system response time; 0 if the app never finished.
	ResponseCycles uint64
	// Retired is the total instructions retired.
	Retired uint64
	// IPC is Target / ResponseCycles; 0 if the app never finished.
	IPC float64
}

// DynamicResult is the outcome of one open-system run.
type DynamicResult struct {
	// Policy is the allocation policy's name.
	Policy string
	// Admission is the admission discipline's name ("fifo" by default).
	Admission string
	// Cycles is the simulated time span (last event's cycle).
	Cycles uint64
	// Slices is the number of policy invocations (quantum boundaries plus
	// off-quantum admissions).
	Slices int
	// Apps holds per-application results in trace order.
	Apps []DynamicAppResult
	// MeanLiveApps is the time-averaged number of live applications.
	MeanLiveApps float64
	// PeakLiveApps is the maximum number of simultaneously live apps.
	PeakLiveApps int
	// Deferred counts arrivals that had to queue for a hardware thread.
	Deferred int
	// AllCompleted reports whether every application finished in bound.
	AllCompleted bool
	// Placements records the per-slice placements in global app-index
	// space when DynamicOptions.RecordPlacements is set.
	Placements []Placement
}

// RunDynamic executes an open-system workload under a policy: applications
// are admitted at their arrival cycles (queueing under the configured
// admission discipline — FIFO by default — when all hardware threads are
// busy), run until they retire their target, and depart for good. The
// policy is re-invoked every slice over the live set only; its QuantumState
// carries stable identities in AppIDs and an Unplaced-padded Prev view, so
// both stateless and stateful policies work across arbitrary occupancy
// changes, including odd live-app counts.
func (m *Machine) RunDynamic(work []DynamicApp, policy Policy, opt DynamicOptions) (*DynamicResult, error) {
	if policy == nil {
		return nil, fmt.Errorf("machine: nil policy")
	}
	if len(work) == 0 {
		return nil, fmt.Errorf("machine: no applications")
	}
	for i := range work {
		if work[i].Model == nil {
			return nil, fmt.Errorf("machine: app %d has no model", i)
		}
		if work[i].Target == 0 {
			return nil, fmt.Errorf("machine: app %d (%s) has no target; open-system jobs are finite",
				i, work[i].Model.Name)
		}
	}
	maxCycles := opt.MaxCycles
	if maxCycles == 0 {
		maxCycles = uint64(DefaultMaxQuanta) * m.cfg.QuantumCycles
	}

	// Arrival order: by cycle, ties by trace position (FIFO).
	order := make([]int, len(work))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return work[order[a]].ArriveAt < work[order[b]].ArriveAt
	})

	res := &DynamicResult{Policy: policy.Name(), Apps: make([]DynamicAppResult, len(work))}
	for i := range work {
		res.Apps[i] = DynamicAppResult{
			Name:     work[i].Model.Name,
			Target:   work[i].Target,
			ArriveAt: work[i].ArriveAt,
			Priority: work[i].Priority,
			Weight:   work[i].Weight,
		}
	}

	ropt := DynRunnerOptions{Seed: opt.Seed, Admission: opt.Admission, Obs: opt.Obs.Machine(0)}
	if opt.RecordPlacements {
		ropt.OnPlace = func(ids []int, place Placement) {
			global := make(Placement, len(work))
			for i := range global {
				global[i] = Unplaced
			}
			for i, gi := range ids {
				global[gi] = place[i]
			}
			res.Placements = append(res.Placements, global)
		}
	}
	r, err := NewDynRunner(m, policy, ropt)
	if err != nil {
		return nil, err
	}
	res.Admission = r.AdmissionName()

	// The intra-run worker pool lives for exactly this run.
	stopPool := m.startPool()
	defer stopPool()

	var (
		nextArr int // cursor into order
		outs    []JobOutcome
	)
	for r.Now() < maxCycles {
		// Arrivals whose time has come join the admission queue under
		// their global trace index — the identity the policy, the
		// admission discipline and the per-job RNG stream all key on.
		for nextArr < len(order) && work[order[nextArr]].ArriveAt <= r.Now() {
			gi := order[nextArr]
			r.Arrive(work[gi], gi)
			nextArr++
		}
		if err := r.BeginSlice(maxCycles); err != nil {
			return nil, err
		}
		if !r.Planned() {
			if r.Live() > 0 {
				break // defensive: zero-length slice at the run bound
			}
			if nextArr >= len(order) {
				break // system drained
			}
			// Idle period: fast-forward to the next arrival.
			next := work[order[nextArr]].ArriveAt
			if next > maxCycles {
				break
			}
			r.SkipTo(next)
			continue
		}
		// An arrival inside the slice cuts it short (the off-quantum
		// admission point). On a full machine the cut is skipped: the
		// newcomer could only join the waiting queue, and departures —
		// the only thing that frees a thread — are detected at slice
		// ends regardless, so cutting would just shorten the PMU sample
		// window for no benefit.
		if nextArr < len(order) && r.Free() > 0 {
			if at := work[order[nextArr]].ArriveAt; at > r.Now() && at < r.PlanEnd() {
				r.Cut(at)
			}
		}
		r.StepPlanned()
		outs = r.FinishSlice(outs[:0])
		r.FlushObs() // slice barrier: drain the trace shard in order
		for i := range outs {
			o := &outs[i]
			a := &res.Apps[o.ID]
			a.Admitted = true
			a.AdmittedAt = o.AdmittedAt
			a.Finished = true
			a.FinishAt = o.FinishAt
			a.ResponseCycles = o.ResponseCycles
			a.Retired = o.Retired
			a.IPC = o.IPC
		}
	}

	r.FlushObs()
	res.Cycles = r.Now()
	res.Slices = r.Slices()
	res.MeanLiveApps = r.MeanLive()
	res.PeakLiveApps = r.PeakLive()
	res.Deferred = r.DeferredAdmits()
	for _, o := range r.Unfinished(nil) {
		a := &res.Apps[o.ID]
		a.Admitted = o.Admitted
		a.AdmittedAt = o.AdmittedAt
		a.Retired = o.Retired
	}
	res.AllCompleted = true
	for gi := range work {
		if !res.Apps[gi].Finished {
			res.AllCompleted = false
			// An arrival still waiting when the run ended queued without
			// ever being admitted; the runner only counts the admitted
			// ones.
			if !res.Apps[gi].Admitted && work[gi].ArriveAt < res.Cycles {
				res.Deferred++
			}
		}
	}
	return res, nil
}
