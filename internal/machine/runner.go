// DynRunner is the machine's one run loop, factored into explicit steps —
// Arrive, BeginSlice, Cut, StepPlanned, FinishSlice, SkipTo — so that three
// drivers share it. Run drives one runner as the closed §V-B system: every
// app arrives at cycle 0, never departs and is relaunched in place at each
// target multiple, under the closed system's binding and stepping rules
// (the closed field). RunDynamic drives one runner as the open system, and
// the fleet drives hundreds on one global event clock, cutting and planning
// slices lazily at dispatch time. The golden digests in internal/regression
// pin all three bit for bit.
//
// The step protocol, per machine:
//
//	Arrive*(job)            enqueue a dispatched arrival (stream order)
//	BeginSlice(maxCycles)   admit from the arrived queue, invoke the
//	                        placement policy over the live set, bind
//	                        threads and plan a slice ending at
//	                        min(now+quantum, maxCycles)
//	Cut(t)                  shorten the planned slice to end at t — legal
//	                        until the slice has been stepped, because
//	                        execution is lazy and the live set cannot
//	                        change mid-plan
//	StepPlanned()           execute the planned slice on the cores; the
//	                        only step safe to run in parallel across
//	                        machines (it touches exclusively this
//	                        machine's cores, instances and PMU banks)
//	FinishSlice(out)        advance the clock to the plan end, collect
//	                        PMU deltas and emit departures
//	SkipTo(t)               fast-forward an idle machine
//
// Jobs are stored in recycled slots, so a runner's memory is O(hardware
// threads + queued arrivals), independent of how many jobs have streamed
// through it. Identity that must survive slot recycling — the policy's
// AppIDs, the admission queue's Job.ID and the per-job RNG seed — comes
// from the caller-assigned job ID (the global trace index), which is also
// what makes a single-machine fleet reproduce RunDynamic exactly.
package machine

import (
	"fmt"
	"slices"

	"synpa/internal/admission"
	"synpa/internal/apps"
	"synpa/internal/obs"
	"synpa/internal/perfstat"
	"synpa/internal/pmu"
	"synpa/internal/predcache"
	"synpa/internal/smtcore"
)

// DynRunnerOptions configure a DynRunner.
type DynRunnerOptions struct {
	// Seed derives every job's private random stream together with the
	// job ID: seed + id·φ + 1, the same derivation at any fleet size.
	Seed uint64
	// Admission orders the arrived queue; nil selects admission.FIFO.
	Admission admission.Policy
	// OnPlace, when set, observes every successful placement: ids are the
	// live jobs' IDs and place their cores, both valid only during the
	// call.
	OnPlace func(ids []int, place Placement)
	// Obs is the machine's observability handle (obs.Observer.Machine).
	// The zero value disables tracing and metrics entirely; a disabled
	// site costs one nil check.
	Obs obs.MachineView
}

// JobOutcome is one job's terminal (or, for Unfinished, current) state.
type JobOutcome struct {
	// ID is the caller-assigned job identity (global trace index).
	ID int
	// Name is the application's benchmark name.
	Name string
	// Target is the job's retired-instruction work.
	Target uint64
	// ArriveAt, AdmittedAt and FinishAt are the job's lifecycle cycles.
	ArriveAt   uint64
	AdmittedAt uint64
	FinishAt   uint64
	// Priority and Weight echo the job's class.
	Priority int
	Weight   float64
	// Admitted reports whether the job ever held a hardware thread.
	Admitted bool
	// Finished reports whether the job completed its target — the
	// authoritative completion flag (FinishAt is a cycle stamp, and cycle
	// 0 is a legitimate stamp, not a sentinel).
	Finished bool
	// ResponseCycles is FinishAt − ArriveAt for finished jobs.
	ResponseCycles uint64
	// Retired is the instructions retired so far.
	Retired uint64
	// IPC is Target / ResponseCycles for finished jobs.
	IPC float64
}

// runnerSlot is the recycled per-job bookkeeping.
type runnerSlot struct {
	used       bool
	id         int
	app        DynamicApp
	inst       *apps.Instance
	bank       *pmu.Bank
	prevSnap   pmu.Counters
	lastDelta  pmu.Counters
	coreOf     int
	admittedAt uint64
	admitted   bool
}

// DynRunner is one machine's step-wise open-system engine.
type DynRunner struct {
	m      *Machine
	policy Policy
	adm    admission.Policy
	seed   uint64
	onPl   func([]int, Placement)

	level     int
	hwThreads int

	slots     []runnerSlot
	freeSlots []int
	live      []int // slot indices, admission order
	waiting   []int // slot indices, dispatch order (non-decreasing ArriveAt)

	bound [][]int // bound[c][s]: slot index on core c thread s, or -1
	busy  []bool

	st       *QuantumState
	ids      []int
	prevView Placement
	samples  []pmu.Counters
	prios    []int
	wjobs    []admission.Job
	rjobs    []admission.Job

	now      uint64
	slices   int
	occupied float64
	ranAny   bool
	peakLive int
	deferred int

	planned bool
	planEnd uint64

	// closed selects the closed §V-B system's two modelling rules (set only
	// by Machine.Run): a core whose occupant set changes is rebound whole
	// (bindWhole), and every core is stepped every slice, idle or not,
	// because an idle core still rotates its issue priority.
	closed bool

	// Observability (see internal/obs). mt is nil when tracing is off; rc
	// is never nil but may be the disabled no-op set. cacheStats is the
	// policy's predcache introspection hook when it has one, and the prev*
	// fields hold the last-observed cumulative values so each decision and
	// slice reports deltas.
	mt         *obs.MachineTrace
	rc         *obs.RunCounters
	cacheStats func() (invert, pair predcache.Stats)
	prevInv    predcache.Stats
	prevPair   predcache.Stats
	prevEngine []smtcore.EngineStats
}

// NewDynRunner builds a runner over the machine. The machine must not be
// shared between runners or concurrent runs.
func NewDynRunner(m *Machine, policy Policy, opt DynRunnerOptions) (*DynRunner, error) {
	if policy == nil {
		return nil, fmt.Errorf("machine: nil policy")
	}
	adm := opt.Admission
	if adm == nil {
		adm = admission.FIFO{}
	}
	level := m.cfg.Core.Level()
	r := &DynRunner{
		m:         m,
		policy:    policy,
		adm:       adm,
		seed:      opt.Seed,
		onPl:      opt.OnPlace,
		level:     level,
		hwThreads: len(m.cores) * level,
		busy:      make([]bool, len(m.cores)),
		st:        &QuantumState{NumCores: len(m.cores), DispatchWidth: m.cfg.Core.DispatchWidth, SMTLevel: level},
	}
	r.bound = make([][]int, len(m.cores))
	for c := range r.bound {
		r.bound[c] = make([]int, level)
		for s := range r.bound[c] {
			r.bound[c][s] = -1
		}
	}
	r.mt = opt.Obs.Trace()
	r.rc = opt.Obs.Counters()
	if r.mt != nil || r.rc.Enabled() {
		// Baseline the cumulative sources (policy predcache, core engine
		// tiers) so reused policies/machines report only this run's deltas.
		// Policies backed by a *shared* concurrent cache are excluded:
		// which of their calls hit is schedule-dependent (racing cold
		// misses), so per-decision deltas would perturb the worker-count-
		// invariant trace. Their traffic is aggregated once at run end
		// instead (fleet.Report.PredCache).
		sharedCache := false
		if sc, ok := policy.(interface {
			SharedCache() *predcache.Shared
		}); ok && sc.SharedCache() != nil {
			sharedCache = true
		}
		if cs, ok := policy.(interface {
			CacheStats() (invert, pair predcache.Stats)
		}); ok && !sharedCache {
			r.cacheStats = cs.CacheStats
			r.prevInv, r.prevPair = cs.CacheStats()
		}
		r.prevEngine = make([]smtcore.EngineStats, len(m.cores))
		for c := range m.cores {
			r.prevEngine[c] = m.cores[c].EngineStats()
		}
	}
	return r, nil
}

// Accessors over the runner's clock and occupancy.

// Now returns the machine-local clock.
func (r *DynRunner) Now() uint64 { return r.now }

// Planned reports whether a slice is planned but not yet finished.
func (r *DynRunner) Planned() bool { return r.planned }

// PlanEnd returns the planned slice's end cycle (meaningful when Planned).
func (r *DynRunner) PlanEnd() uint64 { return r.planEnd }

// Live returns the number of jobs holding hardware threads.
func (r *DynRunner) Live() int { return len(r.live) }

// QueuedCount returns the number of dispatched-but-unadmitted jobs.
func (r *DynRunner) QueuedCount() int { return len(r.waiting) }

// Free returns the number of unoccupied hardware threads.
func (r *DynRunner) Free() int { return r.hwThreads - len(r.live) }

// Busy reports whether any job is live or queued.
func (r *DynRunner) Busy() bool { return len(r.live) > 0 || len(r.waiting) > 0 }

// Slices returns the number of finished slices (policy invocations).
func (r *DynRunner) Slices() int { return r.slices }

// PeakLive returns the maximum simultaneous live-job count.
func (r *DynRunner) PeakLive() int { return r.peakLive }

// Occupied returns ∫ live dt over the runner's lifetime — the numerator
// of MeanLive, exposed so a fleet can average occupancy across machines.
func (r *DynRunner) Occupied() float64 { return r.occupied }

// MeanLive returns the time-averaged live-job count.
func (r *DynRunner) MeanLive() float64 {
	if r.now == 0 {
		return 0
	}
	return r.occupied / float64(r.now)
}

// DeferredAdmits counts jobs admitted later than their arrival (jobs still
// queued at run end are the caller's to add, matching RunDynamic's final
// sweep).
func (r *DynRunner) DeferredAdmits() int { return r.deferred }

// AdmissionName returns the admission discipline's name.
func (r *DynRunner) AdmissionName() string { return r.adm.Name() }

// SkipTo fast-forwards an idle machine (no planned slice) to cycle t.
func (r *DynRunner) SkipTo(t uint64) {
	if r.planned {
		panic("machine: SkipTo with a planned slice")
	}
	if t > r.now {
		r.now = t
	}
}

// Arrive enqueues a dispatched job under the caller-assigned ID. Callers
// dispatch in global arrival order, so the queue's arrival cycles are
// non-decreasing; a job may arrive "in the future" of this machine's clock
// (mid-plan dispatch to a full machine) and becomes eligible for admission
// once the clock reaches it.
func (r *DynRunner) Arrive(app DynamicApp, id int) {
	var si int
	if n := len(r.freeSlots); n > 0 {
		si = r.freeSlots[n-1]
		r.freeSlots = r.freeSlots[:n-1]
	} else {
		r.slots = append(r.slots, runnerSlot{})
		si = len(r.slots) - 1
	}
	r.slots[si] = runnerSlot{used: true, id: id, app: app, coreOf: Unplaced}
	r.waiting = append(r.waiting, si)
	r.rc.JobsArrived.Add(1)
	if r.mt != nil {
		// A mid-plan dispatch can target a machine whose clock trails the
		// arrival; stamp the later of the two so shard time stays monotone.
		t := r.now
		if app.ArriveAt > t {
			t = app.ArriveAt
		}
		r.mt.Emit(obs.Event{T: t, Op: obs.OpArrive, Core: -1, App: int64(id), A: int64(app.ArriveAt)})
	}
}

// jobOf builds the admission view of one slot.
func (r *DynRunner) jobOf(si int, remaining uint64) admission.Job {
	s := &r.slots[si]
	return admission.Job{
		ID:       s.id,
		ArriveAt: s.app.ArriveAt,
		Priority: s.app.Priority,
		Weight:   s.app.Weight,
		Work:     remaining,
	}
}

// admit moves a queued slot into the live set.
func (r *DynRunner) admit(si int) {
	s := &r.slots[si]
	s.inst = apps.NewInstance(s.app.Model, r.seed+uint64(s.id)*0x9e3779b97f4a7c15+1)
	s.bank = &pmu.Bank{}
	s.bank.Enable()
	s.admitted = true
	s.admittedAt = r.now
	if r.now > s.app.ArriveAt {
		r.deferred++
		r.rc.JobsDeferred.Add(1)
	}
	r.rc.JobsAdmitted.Add(1)
	if r.mt != nil {
		r.mt.Emit(obs.Event{T: r.now, Op: obs.OpAdmit, Core: -1, App: int64(s.id), A: int64(r.now - s.app.ArriveAt)})
	}
	r.live = append(r.live, si)
	if len(r.live) > r.peakLive {
		r.peakLive = len(r.live)
	}
}

// BeginSlice runs admission over the arrived queue, invokes the placement
// policy over the live set and plans a slice ending at min(now+quantum,
// maxCycles). When no job is live after admission (or the clock already
// sits at maxCycles) no slice is planned and Planned() reports false.
func (r *DynRunner) BeginSlice(maxCycles uint64) error {
	if r.planned {
		panic("machine: BeginSlice with a planned slice")
	}
	// Admission: the eligible queue prefix (ArriveAt ≤ now — dispatch
	// order keeps arrival cycles non-decreasing), capacity permitting, in
	// the order the admission discipline picks.
	arrived := 0
	for arrived < len(r.waiting) && r.slots[r.waiting[arrived]].app.ArriveAt <= r.now {
		arrived++
	}
	if free := r.hwThreads - len(r.live); free > 0 && arrived > 0 {
		r.wjobs = r.wjobs[:0]
		for _, si := range r.waiting[:arrived] {
			r.wjobs = append(r.wjobs, r.jobOf(si, r.slots[si].app.Target))
		}
		r.rjobs = r.rjobs[:0]
		for _, si := range r.live {
			s := &r.slots[si]
			remaining := s.app.Target
			if ret := s.inst.Retired; ret < remaining {
				remaining -= ret
			} else {
				remaining = 0
			}
			r.rjobs = append(r.rjobs, r.jobOf(si, remaining))
		}
		sel := r.adm.Admit(r.wjobs, r.rjobs, free, r.now)
		if err := admission.Validate(sel, len(r.wjobs)); err != nil {
			return fmt.Errorf("machine: %w", err)
		}
		if len(sel) > free {
			sel = sel[:free]
		}
		if len(sel) > 0 {
			taken := make([]bool, arrived)
			for _, wi := range sel {
				r.admit(r.waiting[wi])
				taken[wi] = true
			}
			keep := r.waiting[:0]
			for wi, si := range r.waiting {
				if wi >= arrived || !taken[wi] {
					keep = append(keep, si)
				}
			}
			r.waiting = keep
		}
	}
	r.rc.QueueDepth.Observe(float64(len(r.waiting)))
	if r.mt != nil {
		r.mt.Emit(obs.Event{T: r.now, Op: obs.OpQueue, Core: -1, App: -1, A: int64(len(r.waiting)), B: int64(len(r.live))})
	}
	if len(r.live) == 0 || r.now >= maxCycles {
		return nil
	}

	// Build the policy's view over the live set. The samples view is
	// rebuilt each slice: a job admitted this slice contributes a zero
	// Counters value until it has run.
	n := len(r.live)
	if cap(r.ids) < n {
		r.ids = make([]int, 0, r.hwThreads)
		r.prevView = make(Placement, 0, r.hwThreads)
		r.samples = make([]pmu.Counters, 0, r.hwThreads)
		r.prios = make([]int, 0, r.hwThreads)
	}
	r.ids, r.prevView, r.samples, r.prios = r.ids[:0], r.prevView[:0], r.samples[:0], r.prios[:0]
	for _, si := range r.live {
		s := &r.slots[si]
		r.ids = append(r.ids, s.id)
		r.prevView = append(r.prevView, s.coreOf)
		r.samples = append(r.samples, s.lastDelta)
		r.prios = append(r.prios, s.app.Priority)
	}
	r.st.Quantum = r.slices
	r.st.NumApps = n
	r.st.AppIDs = r.ids
	r.st.Priorities = r.prios
	r.st.Prev, r.st.Samples = nil, nil
	if r.ranAny {
		r.st.Prev = r.prevView
		r.st.Samples = r.samples
	}

	t0 := perfstat.PhaseClock()
	place := r.policy.Place(r.st)
	perfstat.PhaseAdd(perfstat.PhasePolicy, t0)
	if len(place) != n {
		return fmt.Errorf("machine: policy %s returned %d placements for %d live apps",
			r.policy.Name(), len(place), n)
	}
	if err := place.Validate(len(r.m.cores), r.level); err != nil {
		return fmt.Errorf("machine: policy %s: %w", r.policy.Name(), err)
	}
	for i, si := range r.live {
		r.slots[si].coreOf = place[i]
	}
	var rebinds int
	if r.closed {
		rebinds = r.bindWhole(place)
	} else {
		rebinds = r.bindLive(place)
	}
	if r.mt != nil || r.rc.Enabled() {
		r.observePlace(rebinds)
	}
	if r.onPl != nil {
		r.onPl(r.ids, place)
	}

	end := r.now + r.m.cfg.QuantumCycles
	if end > maxCycles {
		end = maxCycles
	}
	r.planned = true
	r.planEnd = end
	return nil
}

// Cut shortens the planned slice to end at cycle t (now < t < PlanEnd) —
// the off-quantum admission point for an arrival dispatched mid-plan.
// Legal because execution is lazy: the slice has not been stepped yet and
// the live set cannot change between plan and step.
func (r *DynRunner) Cut(t uint64) {
	if !r.planned || t <= r.now || t >= r.planEnd {
		panic("machine: Cut outside the planned slice")
	}
	r.planEnd = t
}

// StepPlanned executes the planned slice on the cores. It touches only
// this machine's state, so distinct runners' StepPlanned calls may run
// concurrently; every other step is coordinator-serial.
func (r *DynRunner) StepPlanned() {
	if !r.planned {
		panic("machine: StepPlanned without a planned slice")
	}
	var busy []bool // nil steps every core: the closed system's rule
	if !r.closed {
		busy = r.busy
		for c, bound := range r.bound {
			busy[c] = slices.Max(bound) >= 0 // some thread is bound
		}
	}
	t0 := perfstat.PhaseClock()
	r.m.stepCores(r.planEnd-r.now, busy)
	perfstat.PhaseAdd(perfstat.PhaseSimulation, t0)
}

// FinishSlice advances the clock to the plan end, collects every live
// job's PMU deltas and appends departures (true completion) to out,
// in live order. The slice must have been stepped.
func (r *DynRunner) FinishSlice(out []JobOutcome) []JobOutcome {
	if !r.planned {
		panic("machine: FinishSlice without a planned slice")
	}
	start := r.now
	slice := r.planEnd - r.now
	r.slices++
	r.now = r.planEnd
	r.occupied += float64(len(r.live)) * float64(slice)
	r.planned = false

	// Collect each live job's slice deltas for the next Place call.
	for _, si := range r.live {
		s := &r.slots[si]
		snap := s.bank.Read()
		s.lastDelta = snap.Delta(s.prevSnap)
		s.prevSnap = snap
	}
	r.ranAny = true
	r.rc.Slices.Add(1)
	if r.prevEngine != nil {
		r.observeSlice(start, slice)
	}

	// Departures. The thread is unbound immediately so the freed slot
	// index can be recycled without colliding with its stale binding
	// (RunDynamic's historical lazy unbind relied on job indices never
	// being reused; nothing runs between here and the next bind either
	// way).
	keep := r.live[:0]
	for _, si := range r.live {
		s := &r.slots[si]
		if s.inst.Retired < s.app.Target {
			keep = append(keep, si)
			continue
		}
		o := JobOutcome{
			ID:             s.id,
			Name:           s.app.Model.Name,
			Target:         s.app.Target,
			ArriveAt:       s.app.ArriveAt,
			AdmittedAt:     s.admittedAt,
			FinishAt:       r.now,
			Priority:       s.app.Priority,
			Weight:         s.app.Weight,
			Admitted:       true,
			Finished:       true,
			ResponseCycles: r.now - s.app.ArriveAt,
			Retired:        s.inst.Retired,
		}
		if o.ResponseCycles > 0 {
			o.IPC = float64(s.app.Target) / float64(o.ResponseCycles)
		}
		out = append(out, o)
		r.rc.JobsCompleted.Add(1)
		r.rc.ResponseCycles.Observe(float64(o.ResponseCycles))
		if r.mt != nil {
			r.mt.Emit(obs.Event{T: r.now, Op: obs.OpDepart, Core: -1, App: int64(s.id), Name: s.app.Model.Name, A: int64(o.ResponseCycles)})
		}
		if c := s.coreOf; c >= 0 {
			for k, bsi := range r.bound[c] {
				if bsi == si {
					r.m.cores[c].Bind(k, nil, nil)
					r.bound[c][k] = -1
					break
				}
			}
		}
		*s = runnerSlot{}
		r.freeSlots = append(r.freeSlots, si)
	}
	r.live = keep
	return out
}

// Unfinished appends the current state of every live and queued job to
// out (live first, each set in queue order) — the caller's end-of-run
// accounting.
func (r *DynRunner) Unfinished(out []JobOutcome) []JobOutcome {
	for _, si := range r.live {
		s := &r.slots[si]
		out = append(out, JobOutcome{
			ID:         s.id,
			Name:       s.app.Model.Name,
			Target:     s.app.Target,
			ArriveAt:   s.app.ArriveAt,
			AdmittedAt: s.admittedAt,
			Priority:   s.app.Priority,
			Weight:     s.app.Weight,
			Admitted:   true,
			Retired:    s.inst.Retired,
		})
	}
	for _, si := range r.waiting {
		s := &r.slots[si]
		out = append(out, JobOutcome{
			ID:       s.id,
			Name:     s.app.Model.Name,
			Target:   s.app.Target,
			ArriveAt: s.app.ArriveAt,
			Priority: s.app.Priority,
			Weight:   s.app.Weight,
		})
	}
	return out
}

// bindLive rebinds hardware threads to match the live placement, touching
// only slots whose occupant changes: a job keeps its thread (and its
// pipeline state) whenever it stays on the same core. It returns the
// number of threads that received a new occupant — the placement's rebind
// cost (pipeline state lost to migration).
func (r *DynRunner) bindLive(place Placement) int {
	rebinds := 0
	want := make([]int, r.level)
	used := make([]bool, r.level)
	for c := range r.bound {
		// Desired occupants of core c, in live order.
		n := 0
		for i, si := range r.live {
			if place[i] == c && n < r.level {
				want[n] = si
				n++
			}
		}
		// Keep jobs already bound to this core in their threads.
		for k := range used {
			used[k] = false
		}
		for s := 0; s < r.level; s++ {
			cur := r.bound[c][s]
			if cur < 0 {
				continue
			}
			stay := false
			for k := 0; k < n; k++ {
				if !used[k] && want[k] == cur {
					used[k] = true
					stay = true
					break
				}
			}
			if !stay {
				r.m.cores[c].Bind(s, nil, nil)
				r.bound[c][s] = -1
			}
		}
		// Place newcomers in the free threads.
		for k := 0; k < n; k++ {
			if used[k] {
				continue
			}
			for s := 0; s < r.level; s++ {
				if r.bound[c][s] < 0 {
					r.m.cores[c].Bind(s, r.slots[want[k]].inst, r.slots[want[k]].bank)
					r.bound[c][s] = want[k]
					rebinds++
					break
				}
			}
		}
	}
	return rebinds
}

// bindWhole is the closed system's binding rule. A core whose occupant set
// changed — every core on the first placement — is rebound whole, thread k
// taking the core's k-th occupant in live order, so an occupant that stays
// loses its pipeline state too and draws a fresh event window; unchanged
// cores keep theirs. It returns the number of threads that received an
// occupant.
func (r *DynRunner) bindWhole(place Placement) int {
	rebinds := 0
	want := make([]int, r.level)
	for c, bound := range r.bound {
		n := 0
		same := r.ranAny
		for i, si := range r.live {
			if place[i] == c && n < r.level {
				want[n] = si
				same = same && bound[n] == si
				n++
			}
		}
		if same && (n == r.level || bound[n] < 0) {
			continue
		}
		for k := range bound {
			if k < n {
				s := &r.slots[want[k]]
				r.m.cores[c].Bind(k, s.inst, s.bank)
				bound[k] = want[k]
				rebinds++
			} else {
				r.m.cores[c].Bind(k, nil, nil)
				bound[k] = -1
			}
		}
	}
	return rebinds
}

// observePlace records one placement decision: place-call and rebind
// counters plus the predcache hit/miss deltas attributable to the decision
// (when the policy exposes CacheStats). Called only when observability is
// on.
func (r *DynRunner) observePlace(rebinds int) {
	r.rc.PlaceCalls.Add(1)
	r.rc.Rebinds.Add(int64(rebinds))
	var vals []float64
	if r.cacheStats != nil {
		inv, pair := r.cacheStats()
		dInvH := int64(inv.Hits - r.prevInv.Hits)
		dInvM := int64(inv.Misses - r.prevInv.Misses)
		dPairH := int64(pair.Hits - r.prevPair.Hits)
		dPairM := int64(pair.Misses - r.prevPair.Misses)
		r.prevInv, r.prevPair = inv, pair
		r.rc.InvertHits.Add(dInvH)
		r.rc.InvertMisses.Add(dInvM)
		r.rc.PairHits.Add(dPairH)
		r.rc.PairMisses.Add(dPairM)
		if r.mt != nil {
			vals = []float64{float64(dInvH), float64(dInvM), float64(dPairH), float64(dPairM)}
		}
	}
	if r.mt != nil {
		r.mt.Emit(obs.Event{T: r.now, Op: obs.OpPlace, Core: -1, App: -1, A: int64(r.slices), B: int64(rebinds), Vals: vals})
	}
}

// observeSlice attributes one finished slice to the core-engine tier
// counters and, when tracing, emits one exec span per occupied hardware
// thread in (core, slot) order — the shard-internal order the (t, machine,
// core) trace merge relies on. Called before departures unbind threads.
func (r *DynRunner) observeSlice(start, slice uint64) {
	var dStep, dSpan, dFF int64
	for c := range r.m.cores {
		es := r.m.cores[c].EngineStats()
		prev := r.prevEngine[c]
		r.prevEngine[c] = es
		dStep += int64(es.StepCycles - prev.StepCycles)
		dSpan += int64(es.SpanCycles - prev.SpanCycles)
		ff := int64(es.FFCycles - prev.FFCycles)
		dFF += ff
		if r.mt == nil {
			continue
		}
		for k := 0; k < r.level; k++ {
			si := r.bound[c][k]
			if si < 0 {
				continue
			}
			s := &r.slots[si]
			r.mt.Emit(obs.Event{
				T: start, Dur: slice, Op: obs.OpExec,
				Core: int32(c*r.level + k), App: int64(s.id), Name: s.app.Model.Name,
				A: int64(s.lastDelta[pmu.InstRetired]), B: ff,
			})
		}
	}
	r.rc.StepCycles.Add(dStep)
	r.rc.SpanCycles.Add(dSpan)
	r.rc.FFCycles.Add(dFF)
}

// FlushObs drains this machine's trace shard into the run-global trace.
// Coordinator-serial only: callers invoke it at the quantum/slice barriers
// in ascending machine order (the parallel-merge invariant). Nil-safe.
func (r *DynRunner) FlushObs() { r.mt.Flush() }
