// Package fleet simulates a cluster of SYNPA machines under one global
// event clock: a two-level scheduler whose first level dispatches each
// arriving job to a machine (dispatch.go) and whose second level is the
// per-machine SYNPA thread placement, driven through the step-wise
// machine.DynRunner protocol.
//
// Scaling rests on three properties:
//
//   - Sharded simulation. The only expensive step, executing a planned
//     slice on a machine's cores, touches exclusively that machine's
//     state, so the machines due at an event time step in parallel across
//     a worker pool (the PR-4 core pool generalised from cores to
//     machines). Everything else — dispatch, admission, planning, metric
//     merges — is coordinator-serial in a fixed order, which is what makes
//     results bit-identical at every worker count.
//
//   - Event-clock synchronisation. Machines run slices lazily: a slice is
//     planned, possibly cut short when a job is dispatched mid-plan, and
//     only then executed. A binary heap of (plan end, machine) events
//     interleaves hundreds of machine clocks without ever simulating an
//     idle one.
//
//   - Streaming aggregation. Job outcomes fold into mergeable quantile
//     sketches and running moments (internal/stats) the moment they
//     depart; jobs come from a Source that generates arrivals lazily.
//     Memory is O(machines + classes + in-flight jobs), independent of
//     trace length — a million-job run retains no per-job state.
package fleet

import (
	"fmt"
	"sort"

	"synpa/internal/admission"
	"synpa/internal/core"
	"synpa/internal/machine"
	"synpa/internal/obs"
	"synpa/internal/perfstat"
	"synpa/internal/pool"
	"synpa/internal/predcache"
	"synpa/internal/stats"
)

// Config describes a fleet run.
type Config struct {
	// Machines is the cluster size.
	Machines int
	// Machine configures every machine identically. Its Workers is
	// ignored: fleet machines step serially within themselves, and the
	// fleet shards across machines instead (Workers below).
	Machine machine.Config
	// NewPolicy builds machine i's placement policy. Policies hold
	// per-machine state, so each machine needs its own instance.
	NewPolicy func(i int) machine.Policy
	// Dispatch names the cluster-level dispatch policy (Dispatchers());
	// empty selects least-loaded.
	Dispatch string
	// Model is the trained interference model the interference dispatcher
	// scores machines with; other dispatchers ignore it.
	Model *core.Model
	// Admission names the per-machine admission discipline
	// (admission.Names()); empty selects FIFO.
	Admission string
	// Seed derives every job's private random stream (keyed by global job
	// ID, so dispatch decisions do not perturb job behaviour).
	Seed uint64
	// MaxCycles bounds the run; zero means machine.DefaultMaxQuanta
	// quanta. Jobs arriving at or after the bound are never dispatched
	// and the report is marked Truncated.
	MaxCycles uint64
	// Workers bounds the goroutines that shard due machines at an event
	// time. Zero selects GOMAXPROCS; one serialises. Results are
	// bit-identical at every worker count.
	Workers int
	// SharedCache, when non-nil, is a concurrent inversion memo
	// (predcache.Shared) installed into every policy that supports it
	// (core.Policy via SetSharedCache): the whole fleet shares one warm
	// memo; without it every machine inverts directly. Sharing is
	// bit-identical by construction — a hit implies bit-identical inputs
	// to a pure function — so reports cannot depend on it; only the
	// hit/miss split in Report.PredCache becomes schedule-dependent.
	SharedCache *predcache.Shared
	// OnJobDone, when set, observes every completed job in the exact
	// deterministic completion order (machine index ascending within an
	// event time). For tests and custom aggregation.
	OnJobDone func(machineIdx int, o machine.JobOutcome)
	// Obs, when non-nil, receives the run's event trace and metrics. Each
	// machine emits into its own shard, drained at the event-time barriers
	// in ascending machine order (the parallel-merge invariant), and
	// dispatch decisions are traced directly from the coordinator.
	Obs *obs.Observer
}

// ClassReport is one priority class's fleet metrics.
type ClassReport struct {
	// Priority is the class; higher is more urgent.
	Priority int
	// Weight is the mean class weight over the class's dispatched jobs.
	Weight float64
	// Jobs counts the class's dispatched jobs; Completed those finished.
	Jobs, Completed uint64
	// MeanResponseCycles, P95ResponseCycles and ANTT summarise the
	// class's completed-job response times (P95 from the class sketch).
	MeanResponseCycles float64
	P95ResponseCycles  float64
	ANTT               float64
}

// Report is the outcome of a fleet run. All distribution metrics come
// from streaming sketches and moments, never retained samples.
type Report struct {
	// Source, Policy, Admission and Dispatch identify the run.
	Source    string
	Policy    string
	Admission string
	Dispatch  string
	// Machines and Workers echo the configuration (Workers resolved
	// against the GOMAXPROCS default).
	Machines int
	Workers  int
	// Jobs counts dispatched arrivals; Completed those that finished;
	// Unfinished those still live or queued at the end.
	Jobs       uint64
	Completed  uint64
	Unfinished uint64
	// Truncated reports that the source still had arrivals at or beyond
	// MaxCycles; AllCompleted that every dispatched job finished and
	// nothing was truncated.
	Truncated    bool
	AllCompleted bool
	// Cycles is the latest machine clock; Slices the total policy
	// invocations across the fleet.
	Cycles uint64
	Slices int
	// Deferred counts jobs that had to queue for a hardware thread.
	Deferred int
	// PeakLive is the largest single-machine live-job count; MeanLive the
	// time-averaged fleet-wide live-job count.
	PeakLive int
	MeanLive float64
	// MeanResponseCycles and P95ResponseCycles summarise the completed
	// jobs' response-time distribution (P95 from the global sketch).
	MeanResponseCycles float64
	P95ResponseCycles  float64
	// ANTT, STP and WeightedSTP are the paper's open-system metrics over
	// completed jobs, fleet-wide.
	ANTT        float64
	STP         float64
	WeightedSTP float64
	// MinMachineJobs, MaxMachineJobs and Imbalance (max over mean)
	// describe how evenly dispatch spread the jobs.
	MinMachineJobs uint64
	MaxMachineJobs uint64
	Imbalance      float64
	// PerClass breaks response metrics out by priority class, most urgent
	// first; empty when every job is class 0 with default weight.
	PerClass []ClassReport
	// PredCache aggregates the fleet's inversion traffic (zero when no
	// policy exposes cache stats). Without a memo every inversion counts
	// as a miss and the counts are deterministic; with a shared cache
	// (Shared true) the hit/miss split is schedule-dependent even though
	// every other report field stays bit-identical — differential tests
	// zero this field before comparing.
	PredCache PredCacheReport
}

// PredCacheReport is the fleet-wide predcache accounting.
type PredCacheReport struct {
	// Shared reports whether one concurrent cache served the whole fleet.
	Shared bool
	// Invert* sum the inversion memo's hit/miss counters across the
	// fleet; without a memo every inversion is a miss.
	InvertHits, InvertMisses uint64
	// PairHits and PairMisses are always zero: pair predictions are not
	// memoized. They keep the report's shape for existing readers.
	PairHits, PairMisses uint64
	// InvertEntries counts resident inversion entries at run end (zero
	// without a memo).
	InvertEntries int
}

// planEvent is a machine's planned slice end on the global event heap.
// Events are invalidated lazily: one is live only while its machine still
// holds the same plan generation.
type planEvent struct {
	t   uint64
	idx int
	gen uint64
}

// eventHeap is a binary min-heap ordered by (t, idx) — machine index
// breaks time ties so the due batch pops in ascending machine order.
type eventHeap []planEvent

func (h eventHeap) less(a, b int) bool {
	return h[a].t < h[b].t || (h[a].t == h[b].t && h[a].idx < h[b].idx)
}

func (h *eventHeap) push(e planEvent) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *eventHeap) pop() planEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && (*h).less(l, m) {
			m = l
		}
		if r < n && (*h).less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// classAgg accumulates one priority class's streaming metrics.
type classAgg struct {
	prio      int
	weight    float64 // mean over dispatched jobs, incremental
	jobs      uint64
	completed uint64
	respSum   float64
	anttSum   float64
	sketch    *stats.Sketch
}

// aggregate is the fleet's O(classes) streaming metric state.
type aggregate struct {
	resp     *stats.Sketch
	respMom  stats.Moments
	anttMom  stats.Moments
	isoDone  float64
	wIsoDone float64
	wSum     float64
	classes  map[int]*classAgg
	uniform  bool
	// inFlight maps dispatched-but-unfinished job IDs to their isolated
	// cycles — the only per-job state, bounded by the in-flight count.
	inFlight map[int]float64
}

func (a *aggregate) class(prio int) *classAgg {
	cs := a.classes[prio]
	if cs == nil {
		cs = &classAgg{prio: prio, sketch: stats.NewSketch(stats.DefaultSketchAlpha)}
		a.classes[prio] = cs
	}
	return cs
}

// noteDispatch records a job entering the system.
func (a *aggregate) noteDispatch(j *Job) {
	if j.App.Priority != 0 || (j.App.Weight != 0 && j.App.Weight != 1) {
		a.uniform = false
	}
	w := j.App.Weight
	if w == 0 {
		w = 1
	}
	cs := a.class(j.App.Priority)
	cs.weight += (w - cs.weight) / float64(cs.jobs+1)
	cs.jobs++
	a.inFlight[j.ID] = j.IsoCycles
}

// noteDone folds one completed job into the streams.
func (a *aggregate) noteDone(o *machine.JobOutcome) {
	iso := a.inFlight[o.ID]
	delete(a.inFlight, o.ID)
	if o.ResponseCycles == 0 {
		return
	}
	resp := float64(o.ResponseCycles)
	norm := resp / iso
	a.resp.Add(resp)
	a.respMom.Add(resp)
	a.anttMom.Add(norm)
	a.isoDone += iso
	w := o.Weight
	if w == 0 {
		w = 1
	}
	a.wIsoDone += w * iso
	a.wSum += w
	cs := a.class(o.Priority)
	cs.completed++
	cs.respSum += resp
	cs.anttSum += norm
	cs.sketch.Add(resp)
}

// Run simulates the fleet until the source drains and every dispatched
// job finishes, or MaxCycles. See the package comment for the scaling
// model; dispatch order, admission, placement and every metric are
// bit-identical at any worker count.
func Run(cfg Config, src Source) (*Report, error) {
	if src == nil {
		return nil, fmt.Errorf("fleet: nil source")
	}
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("fleet: %d machines; need at least one", cfg.Machines)
	}
	if cfg.NewPolicy == nil {
		return nil, fmt.Errorf("fleet: nil policy factory")
	}
	mcfg := cfg.Machine
	mcfg.Workers = 1
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = uint64(machine.DefaultMaxQuanta) * mcfg.QuantumCycles
	}

	// Build the machines and their runners.
	runners := make([]*machine.DynRunner, cfg.Machines)
	policies := make([]machine.Policy, cfg.Machines)
	var policyName string
	for i := range runners {
		m, err := machine.New(mcfg)
		if err != nil {
			return nil, err
		}
		p := cfg.NewPolicy(i)
		if p == nil {
			return nil, fmt.Errorf("fleet: policy factory returned nil for machine %d", i)
		}
		if cfg.SharedCache != nil {
			// Install the fleet-wide cache before the policy serves its
			// first decision (the setter rewires cache handles only).
			if sc, ok := p.(interface {
				SetSharedCache(*predcache.Shared)
			}); ok {
				sc.SetSharedCache(cfg.SharedCache)
			}
		}
		policies[i] = p
		if i == 0 {
			policyName = p.Name()
		}
		adm, err := admission.ByName(cfg.Admission)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		runners[i], err = machine.NewDynRunner(m, p, machine.DynRunnerOptions{Seed: cfg.Seed, Admission: adm, Obs: cfg.Obs.Machine(i)})
		if err != nil {
			return nil, err
		}
	}
	var tr *obs.Trace
	if cfg.Obs != nil {
		tr = cfg.Obs.Trace
	}
	orc := cfg.Obs.Counters()
	hwThreads := runners[0].Free()
	disp, err := newDispatcher(cfg.Dispatch, cfg.Machines, hwThreads, cfg.Model)
	if err != nil {
		return nil, err
	}

	workers := machine.ResolveWorkers(cfg.Workers, cfg.Machines)
	sp := pool.NewShardPool(workers)
	defer sp.Close()

	agg := &aggregate{
		resp:     stats.NewSketch(stats.DefaultSketchAlpha),
		classes:  map[int]*classAgg{},
		uniform:  true,
		inFlight: map[int]float64{},
	}
	rep := &Report{
		Source:    src.Name(),
		Policy:    policyName,
		Admission: runners[0].AdmissionName(),
		Dispatch:  disp.name(),
		Machines:  cfg.Machines,
		Workers:   workers,
	}

	var (
		h       eventHeap
		gens    = make([]uint64, cfg.Machines)
		marked  = make([]bool, cfg.Machines)
		due     []int
		outs    []machine.JobOutcome
		perMach = make([]uint64, cfg.Machines) // dispatched per machine
		lastArr uint64
	)
	valid := func(e planEvent) bool {
		return runners[e.idx].Planned() && gens[e.idx] == e.gen
	}
	// pull reads the next dispatchable job, applying the horizon cutoff
	// (sources are time-ordered, so one late arrival ends the stream).
	pull := func() (*Job, error) {
		j, ok := src.Next()
		if !ok {
			return nil, src.Err()
		}
		if j.App.Model == nil || j.App.Target == 0 {
			return nil, fmt.Errorf("fleet: source %q job %d has no model or no work", src.Name(), j.ID)
		}
		if j.App.ArriveAt < lastArr {
			return nil, fmt.Errorf("fleet: source %q job %d arrives at %d after cycle %d; sources must be time-ordered",
				src.Name(), j.ID, j.App.ArriveAt, lastArr)
		}
		lastArr = j.App.ArriveAt
		if j.App.ArriveAt >= maxCycles {
			rep.Truncated = true
			return nil, nil
		}
		return &j, nil
	}
	finish := func(mi int, outs []machine.JobOutcome) {
		for i := range outs {
			o := &outs[i]
			rep.Completed++
			agg.noteDone(o)
			disp.done(mi, o.Name)
			if cfg.OnJobDone != nil {
				cfg.OnJobDone(mi, *o)
			}
		}
	}

	pending, err := pull()
	if err != nil {
		return nil, err
	}
	for {
		// The next event time: the earliest live plan end or the pending
		// arrival, whichever is sooner (plan ends win ties so departures
		// free threads before dispatch sees the loads).
		t0 := perfstat.PhaseClock()
		for len(h) > 0 && !valid(h[0]) {
			h.pop()
		}
		haveE := len(h) > 0
		if !haveE && pending == nil {
			perfstat.PhaseAdd(perfstat.PhaseDispatch, t0)
			break
		}
		var T uint64
		switch {
		case haveE && (pending == nil || h[0].t <= pending.App.ArriveAt):
			T = h[0].t
		default:
			T = pending.App.ArriveAt
		}

		// 1) Machines whose slices end at T: step them in parallel (the
		// heap's (t, idx) order pops them ascending), then finish
		// serially in that same order.
		due = due[:0]
		for len(h) > 0 {
			if !valid(h[0]) {
				h.pop()
				continue
			}
			if h[0].t != T {
				break
			}
			due = append(due, h.pop().idx)
		}
		perfstat.PhaseAdd(perfstat.PhaseDispatch, t0)
		if len(due) > 0 {
			d := due
			sp.Run(len(d), func(i int) { runners[d[i]].StepPlanned() })
			t0 = perfstat.PhaseClock()
			for _, mi := range d {
				outs = runners[mi].FinishSlice(outs[:0])
				finish(mi, outs)
				marked[mi] = true
			}
			perfstat.PhaseAdd(perfstat.PhaseDispatch, t0)
		}

		// 2) Arrivals at T, dispatched in stream order. A machine planned
		// across T with a free thread is cut at T and its short slice
		// executed immediately, so admission sees the newcomer
		// off-quantum — exactly RunDynamic's arrival cut. A full or
		// just-finished machine simply queues the job.
		t0 = perfstat.PhaseClock()
		for pending != nil && pending.App.ArriveAt == T {
			j := pending
			// Candidate scores are read before pick commits the job (pick
			// mutates load state); trace-only, and only at fleet sizes
			// where an O(machines) vector per event stays proportionate.
			var scores []float64
			if tr != nil && cfg.Machines <= scoredMachinesMax {
				if sc, ok := disp.(scorer); ok {
					scores = sc.scores(j, nil)
				}
			}
			mi := disp.pick(j)
			orc.Dispatched.Add(1)
			if tr != nil {
				load := int64(-1)
				if lr, ok := disp.(loadReporter); ok {
					load = int64(lr.load(mi))
				}
				tr.Emit(obs.Event{T: T, Op: obs.OpDispatch, Machine: int32(mi), Core: -1, App: int64(j.ID), A: load, Vals: scores})
			}
			r := runners[mi]
			if r.Planned() && r.Free() > 0 && T > r.Now() && T < r.PlanEnd() {
				perfstat.PhaseAdd(perfstat.PhaseDispatch, t0)
				r.Cut(T)
				r.StepPlanned()
				outs = r.FinishSlice(outs[:0])
				t0 = perfstat.PhaseClock()
				finish(mi, outs)
			} else if !r.Planned() && r.Live() == 0 && r.Now() < T {
				r.SkipTo(T)
			}
			r.Arrive(j.App, j.ID)
			marked[mi] = true
			perMach[mi]++
			rep.Jobs++
			agg.noteDispatch(j)
			perfstat.PhaseAdd(perfstat.PhaseDispatch, t0)
			if pending, err = pull(); err != nil {
				return nil, err
			}
			t0 = perfstat.PhaseClock()
		}
		perfstat.PhaseAdd(perfstat.PhaseDispatch, t0)

		// 3) Replan every touched machine, ascending index. A machine at
		// the horizon stays unplanned (mirroring RunDynamic's run bound);
		// one left with only future-dated queued jobs waits for their
		// arrival event instead.
		for mi := range marked {
			if !marked[mi] {
				continue
			}
			marked[mi] = false
			r := runners[mi]
			if r.Planned() || !r.Busy() || r.Now() >= maxCycles {
				continue
			}
			if err := r.BeginSlice(maxCycles); err != nil {
				return nil, err
			}
			if r.Planned() {
				gens[mi]++
				h.push(planEvent{t: r.PlanEnd(), idx: mi, gen: gens[mi]})
			}
		}

		// Event-time barrier: drain every machine's trace shard in
		// ascending machine order — the merge that keeps the global stream
		// in (t, machine, core) order at any worker count.
		if tr != nil {
			for _, r := range runners {
				r.FlushObs()
			}
		}
	}

	if tr != nil {
		for _, r := range runners {
			r.FlushObs()
		}
	}

	// Final accounting: clocks, occupancy, stragglers.
	var occupied float64
	for _, r := range runners {
		if r.Now() > rep.Cycles {
			rep.Cycles = r.Now()
		}
		rep.Slices += r.Slices()
		rep.Deferred += r.DeferredAdmits()
		if r.PeakLive() > rep.PeakLive {
			rep.PeakLive = r.PeakLive()
		}
		occupied += r.Occupied()
		for _, o := range r.Unfinished(nil) {
			rep.Unfinished++
			delete(agg.inFlight, o.ID)
			if !o.Admitted && o.ArriveAt < r.Now() {
				rep.Deferred++
			}
		}
	}
	if rep.Cycles > 0 {
		rep.MeanLive = occupied / float64(rep.Cycles)
		rep.STP = agg.isoDone / float64(rep.Cycles)
		if meanW := agg.wSum / float64(max(rep.Completed, 1)); meanW > 0 {
			rep.WeightedSTP = agg.wIsoDone / meanW / float64(rep.Cycles)
		}
	}
	rep.AllCompleted = !rep.Truncated && rep.Unfinished == 0 && rep.Completed == rep.Jobs
	if n := agg.respMom.Count(); n > 0 {
		rep.MeanResponseCycles = agg.respMom.Mean()
		rep.ANTT = agg.anttMom.Mean()
		rep.P95ResponseCycles = agg.resp.Quantile(0.95)
	}
	if rep.Jobs > 0 {
		rep.MinMachineJobs, rep.MaxMachineJobs = perMach[0], perMach[0]
		for _, n := range perMach[1:] {
			if n < rep.MinMachineJobs {
				rep.MinMachineJobs = n
			}
			if n > rep.MaxMachineJobs {
				rep.MaxMachineJobs = n
			}
		}
		rep.Imbalance = float64(rep.MaxMachineJobs) * float64(cfg.Machines) / float64(rep.Jobs)
	}
	// Predcache accounting: the shared cache's global totals when one
	// serves the fleet, else the per-machine inversion counts
	// (deterministic there — every machine's decision sequence is
	// schedule-independent).
	if cfg.SharedCache != nil {
		rep.PredCache.Shared = true
		inv, _ := cfg.SharedCache.Stats()
		rep.PredCache.InvertHits, rep.PredCache.InvertMisses = inv.Hits, inv.Misses
		rep.PredCache.InvertEntries = cfg.SharedCache.Entries()
	} else {
		for _, p := range policies {
			if cs, ok := p.(interface {
				CacheStats() (invert, pair predcache.Stats)
			}); ok {
				inv, _ := cs.CacheStats()
				rep.PredCache.InvertHits += inv.Hits
				rep.PredCache.InvertMisses += inv.Misses
			}
			if ce, ok := p.(interface{ CacheEntries() int }); ok {
				rep.PredCache.InvertEntries += ce.CacheEntries()
			}
		}
	}
	// Mirror the totals into the metrics registry, but only when there was
	// traffic: runs whose policies expose no cache stats must leave the
	// snapshot untouched (the worker-count-invariance pin compares
	// snapshots byte for byte).
	if cfg.Obs != nil && cfg.Obs.Reg != nil {
		pc := &rep.PredCache
		if pc.InvertHits+pc.InvertMisses > 0 {
			reg := cfg.Obs.Reg
			reg.Counter("fleet.predcache.invert.hits").Add(int64(pc.InvertHits))
			reg.Counter("fleet.predcache.invert.misses").Add(int64(pc.InvertMisses))
			reg.Gauge("fleet.predcache.invert.entries").Set(int64(pc.InvertEntries))
		}
	}

	if !agg.uniform {
		// Sorted-key iteration (most urgent class first): PerClass must
		// never observe map order — the maporder lint invariant for
		// report-feeding loops.
		prios := make([]int, 0, len(agg.classes))
		for prio := range agg.classes {
			prios = append(prios, prio)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(prios)))
		for _, prio := range prios {
			cs := agg.classes[prio]
			cr := ClassReport{
				Priority:  cs.prio,
				Weight:    cs.weight,
				Jobs:      cs.jobs,
				Completed: cs.completed,
			}
			if cs.completed > 0 {
				cr.MeanResponseCycles = cs.respSum / float64(cs.completed)
				cr.ANTT = cs.anttSum / float64(cs.completed)
				cr.P95ResponseCycles = cs.sketch.Quantile(0.95)
			}
			rep.PerClass = append(rep.PerClass, cr)
		}
	}
	return rep, nil
}
