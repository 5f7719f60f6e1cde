// Package machine assembles SMT cores into the simulated multi-core system
// the experiments run on, and implements the user-level thread manager of
// paper §V-A: every quantum it asks an allocation policy where each
// application should run, applies the placement (the simulated equivalent of
// sched_setaffinity), executes the quantum on every core in parallel, and
// collects per-application PMU samples.
//
// The manager is one run loop, DynRunner (runner.go), with three drivers:
// Run, the closed §V-B system that keeps every application resident and
// relaunches it at each target multiple; RunDynamic, the open system whose
// jobs arrive and depart (dynamic.go); and internal/fleet, which interleaves
// many machines' runners on one event clock.
//
// The paper's manager runs on a 28-core ThunderX2; its 8-application
// workloads occupy four SMT2 cores. The machine size, SMT level
// (Config.Core.SMTLevel — the BIOS knob of §V-A, up to the hardware's SMT4)
// and quantum length are configurable; the quantum defaults to a scaled-down
// cycle count because every quantity SYNPA consumes is a per-cycle fraction
// (DESIGN.md §2).
package machine

import (
	"fmt"
	"math"

	"synpa/internal/apps"
	"synpa/internal/obs"
	"synpa/internal/perfstat"
	"synpa/internal/pmu"
	"synpa/internal/pool"
	"synpa/internal/smtcore"
)

// Config describes the simulated system.
type Config struct {
	// Cores is the number of SMT cores (each with Core.SMTLevel hardware
	// threads).
	Cores int
	// QuantumCycles is the length of one scheduling quantum in core
	// cycles (the paper uses 100 ms of wall time; see DESIGN.md for the
	// scaling argument).
	QuantumCycles uint64
	// Core is the per-core microarchitecture configuration.
	Core smtcore.Config
	// Workers bounds the worker goroutines that shard the per-core
	// stepping within one quantum (workers.go). Zero selects GOMAXPROCS;
	// one disables sharding, as callers that fan independent runs out
	// across CPUs themselves (the experiment suite) set it. Results are
	// bit-identical at every worker count: cores are state-isolated within
	// a quantum and the merge order is fixed (see workers.go).
	Workers int
	// FastForward enables the event-driven fast-forward engine in every
	// core (internal/smtcore/DESIGN.md). The engine is observationally
	// equivalent to the per-cycle reference loop, so this only trades
	// wall-clock time; disable it to benchmark the reference simulator.
	FastForward bool
}

// DefaultConfig returns a four-core machine sized for the paper's
// 8-application workloads.
func DefaultConfig() Config {
	return Config{
		Cores:         4,
		QuantumCycles: 20_000,
		Core:          smtcore.DefaultConfig(),
		FastForward:   true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("machine: need at least one core")
	}
	if c.QuantumCycles < 1000 {
		return fmt.Errorf("machine: quantum of %d cycles is too short to measure", c.QuantumCycles)
	}
	return c.Core.Validate()
}

// ThreadsPerCore returns the machine's SMT level: the number of hardware
// threads each core exposes.
func (c Config) ThreadsPerCore() int { return c.Core.Level() }

// HWThreads returns the machine's hardware-thread capacity.
func (c Config) HWThreads() int { return c.Cores * c.Core.Level() }

// Placement maps each application index to a core index. At most
// threadsPerCore (the machine's SMT level) applications may share a core.
// The sentinel Unplaced appears only in the Prev view handed to policies
// during dynamic runs (an application that has not run yet); placements
// returned by a policy must assign every application a real core.
type Placement []int

// Unplaced marks an application without a core in a Prev placement view.
const Unplaced = -1

// Clone returns a copy of the placement.
func (p Placement) Clone() Placement { return append(Placement(nil), p...) }

// Validate checks that the placement is feasible on numCores cores of
// threadsPerCore hardware threads each.
func (p Placement) Validate(numCores, threadsPerCore int) error {
	load := make([]int, numCores)
	for app, core := range p {
		if core < 0 || core >= numCores {
			return fmt.Errorf("machine: app %d placed on invalid core %d", app, core)
		}
		load[core]++
		if load[core] > threadsPerCore {
			return fmt.Errorf("machine: core %d assigned more than %d apps", core, threadsPerCore)
		}
	}
	return nil
}

// PairsOf returns, for each core, the app indices placed on it in
// ascending order — pairs at SMT2, groups of up to the SMT level in
// general. dst's rows are reused when it has them, so a caller that keeps
// the result allocates nothing in steady state.
func (p Placement) PairsOf(numCores int, dst [][]int) [][]int {
	dst = dst[:cap(dst)]
	for len(dst) < numCores {
		dst = append(dst, nil)
	}
	dst = dst[:numCores]
	for c := range dst {
		dst[c] = dst[c][:0]
	}
	for app, core := range p {
		if core >= 0 && core < numCores {
			dst[core] = append(dst[core], app)
		}
	}
	return dst
}

// CoMate returns the index of the app sharing a core with app i, or -1.
// It is the SMT2 pairwise view — above two threads per core use PairsOf,
// which returns whole co-resident groups. Inside per-quantum or per-app
// loops prefer CoMates, which computes every pairing in one O(n) pass
// instead of O(n) per query.
func (p Placement) CoMate(i int) int {
	if p[i] < 0 {
		return -1 // Unplaced apps share nothing
	}
	for j, c := range p {
		if j != i && c == p[i] {
			return j
		}
	}
	return -1
}

// CoMates returns, for every app, the index of the app sharing its core
// (-1 for solo apps), in one pass. dst is reused when it has capacity.
func (p Placement) CoMates(dst []int) []int {
	if cap(dst) >= len(p) {
		dst = dst[:len(p)]
	} else {
		dst = make([]int, len(p))
	}
	for i := range dst {
		dst[i] = -1
	}
	// first[c] remembers the first occupant seen on core c.
	maxCore := -1
	for _, c := range p {
		if c > maxCore {
			maxCore = c
		}
	}
	first := make([]int, maxCore+1)
	for i := range first {
		first[i] = -1
	}
	for i, c := range p {
		if c < 0 {
			continue
		}
		if j := first[c]; j >= 0 {
			dst[i], dst[j] = j, i
		} else {
			first[c] = i
		}
	}
	return dst
}

// QuantumState is the information a policy receives when asked to place
// applications for the next quantum.
type QuantumState struct {
	// Quantum is the index of the quantum about to execute (0-based).
	Quantum int
	// NumCores is the machine size.
	NumCores int
	// NumApps is the number of applications in the workload. In a dynamic
	// (open-system) run this is the number of *live* applications and may
	// change between quanta as applications arrive and depart.
	NumApps int
	// AppIDs gives each application's stable identity across quanta. In a
	// closed-system run it is 0..NumApps−1: index i is identity i forever,
	// as it is when a hand-built state leaves AppIDs nil. In a dynamic run
	// indices are compacted over the live set, so stateful policies must
	// use AppIDs — not positions — to carry per-application state across
	// quanta. The slice is owned by the runner and must not be retained
	// past the Place call.
	AppIDs []int
	// Prev is the placement executed during the previous quantum; nil
	// before the first quantum. In a dynamic run entries may be
	// Unplaced (-1) for applications that arrived after that quantum.
	Prev Placement
	// Samples holds each application's PMU deltas over the previous
	// quantum; nil before the first quantum. In a dynamic run a zero
	// Counters value marks an application that has not run yet.
	Samples []pmu.Counters
	// Priorities holds each application's priority class (higher = more
	// urgent), parallel to the live set, so placement policies can
	// discriminate by class. In a closed-system run every application is
	// class 0; a hand-built state may leave it nil. Owned by the runner;
	// must not be retained past the Place call.
	Priorities []int
	// DispatchWidth is the core dispatch width (for characterization).
	DispatchWidth int
	// SMTLevel is the machine's hardware threads per core; a placement
	// must not assign more than SMTLevel applications to one core. Zero
	// (a hand-built state) means the default SMT2.
	SMTLevel int
}

// ThreadsPerCore returns the state's SMT level, substituting the SMT2
// default for a zero value.
func (st *QuantumState) ThreadsPerCore() int {
	if st.SMTLevel > 0 {
		return st.SMTLevel
	}
	return smtcore.DefaultSMTLevel
}

// Policy decides the thread-to-core allocation each quantum. The Linux
// baseline, the SYNPA policy and every ablation implement this interface.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Place returns the placement for the next quantum. The QuantumState
	// and its Samples vector are owned by the runner and reused across
	// quanta: implementations must not retain them past the call.
	Place(st *QuantumState) Placement
}

// AppResult summarises one application's execution within a workload run.
type AppResult struct {
	// Name is the application's benchmark name.
	Name string
	// Target is the retired-instruction target (§V-B methodology).
	Target uint64
	// CompletedAtCycle is the machine cycle at which the app first
	// reached its target; 0 if it never completed.
	CompletedAtCycle uint64
	// CompletedAtQuantum is the quantum index of completion, -1 if never.
	CompletedAtQuantum int
	// Retired is the total instructions retired over the whole run
	// (including post-completion relaunches).
	Retired uint64
	// IPC is Target / CompletedAtCycle — the per-application performance
	// number used for the paper's fairness and IPC metrics.
	IPC float64
}

// Result is the outcome of running one workload under one policy.
type Result struct {
	// Policy is the allocation policy's name.
	Policy string
	// Quanta is the number of quanta executed.
	Quanta int
	// QuantumCycles echoes the configured quantum length.
	QuantumCycles uint64
	// Apps holds per-application results, in workload order.
	Apps []AppResult
	// Placements records the placement of every executed quantum.
	Placements []Placement
	// Samples records per-quantum, per-app PMU deltas when tracing was
	// enabled: Samples[q][a].
	Samples [][]pmu.Counters
	// AllCompleted reports whether every application reached its target.
	AllCompleted bool
}

// TurnaroundCycles returns the workload turnaround time: the completion
// cycle of the slowest application (paper §VI-B). The second return is
// false if some application never completed.
func (r *Result) TurnaroundCycles() (uint64, bool) {
	var tt uint64
	for i := range r.Apps {
		if r.Apps[i].CompletedAtCycle == 0 {
			return 0, false
		}
		if r.Apps[i].CompletedAtCycle > tt {
			tt = r.Apps[i].CompletedAtCycle
		}
	}
	return tt, true
}

// Machine is the simulated multi-core system.
type Machine struct {
	cfg     Config
	cores   []*smtcore.Core
	workers int             // resolved intra-run worker count (>= 1)
	pool    *pool.ShardPool // run-scoped worker pool, nil outside parallel runs
}

// New builds a machine. It returns an error for invalid configurations.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, workers: cfg.EffectiveWorkers()}
	for i := 0; i < cfg.Cores; i++ {
		core := smtcore.New(i, cfg.Core)
		core.SetFastForward(cfg.FastForward)
		m.cores = append(m.cores, core)
	}
	return m, nil
}

// Workers returns the resolved intra-run worker count.
func (m *Machine) Workers() int { return m.workers }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumCores returns the core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// RunnerOptions tune a workload run.
type RunnerOptions struct {
	// Seed derives every application's private random stream.
	Seed uint64
	// MaxQuanta bounds the run; the run also stops once every app has
	// completed its target. Zero means the DefaultMaxQuanta bound.
	MaxQuanta int
	// RecordTrace keeps per-quantum per-app samples in the Result
	// (needed by the Fig. 6/7 and Table V analyses).
	RecordTrace bool
	// Obs, when non-nil, receives the run's event trace and metrics (the
	// single machine is machine 0). Tracing never perturbs the simulation.
	Obs *obs.Observer
}

// DefaultMaxQuanta caps runaway executions.
const DefaultMaxQuanta = 20_000

// Run executes the given applications under a policy until every app
// reaches its instruction target (relaunching completed apps to keep the
// machine loaded, per §V-B) or MaxQuanta elapses.
//
// targets[i] is the retired-instruction target of models[i]; a zero target
// means "run for the whole experiment without a completion time".
//
// Run drives a DynRunner in which every app arrives at cycle 0 under its
// index and never departs: at each multiple of its target the driver
// records the first completion and relaunches the app in place.
func (m *Machine) Run(models []*apps.Model, targets []uint64, policy Policy, opt RunnerOptions) (*Result, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("machine: no applications")
	}
	if len(targets) != len(models) {
		return nil, fmt.Errorf("machine: %d targets for %d applications", len(targets), len(models))
	}
	for i, mod := range models {
		if mod == nil {
			return nil, fmt.Errorf("machine: app %d has no model", i)
		}
	}
	if hwThreads := m.cfg.HWThreads(); len(models) > hwThreads {
		return nil, fmt.Errorf("machine: %d applications exceed %d hardware threads", len(models), hwThreads)
	}
	maxQuanta := opt.MaxQuanta
	if maxQuanta <= 0 {
		maxQuanta = DefaultMaxQuanta
	}

	res := &Result{
		QuantumCycles: m.cfg.QuantumCycles,
		Apps:          make([]AppResult, len(models)),
		// Typical runs finish within a few hundred quanta; pre-sizing the
		// per-quantum records avoids most of the append regrowth without
		// committing MaxQuanta-sized buffers up front.
		Placements: make([]Placement, 0, 256),
	}
	r, err := NewDynRunner(m, policy, DynRunnerOptions{
		Seed: opt.Seed,
		Obs:  opt.Obs.Machine(0),
		OnPlace: func(_ []int, place Placement) {
			res.Placements = append(res.Placements, place.Clone())
		},
	})
	if err != nil {
		return nil, err
	}
	res.Policy = policy.Name()
	r.closed = true
	anyTarget := false
	for i, mod := range models {
		res.Apps[i] = AppResult{Name: mod.Name, Target: targets[i], CompletedAtQuantum: -1}
		anyTarget = anyTarget || targets[i] > 0
		r.Arrive(DynamicApp{Model: mod, Target: math.MaxUint64}, i)
	}

	// The intra-run worker pool lives for exactly this run.
	stopPool := m.startPool()
	defer stopPool()

	// Every app is admitted at cycle 0 in index order, so live position i
	// is app i for the whole run.
	launches := make([]uint64, len(models)) // completed target multiples
	maxCycles := uint64(maxQuanta) * m.cfg.QuantumCycles
	for r.Now() < maxCycles {
		if err := r.BeginSlice(maxCycles); err != nil {
			return nil, err
		}
		r.StepPlanned()
		r.FinishSlice(nil)
		r.FlushObs() // quantum barrier: drain the trace shard in order
		if opt.RecordTrace {
			samples := make([]pmu.Counters, len(models))
			for i, si := range r.live {
				samples[i] = r.slots[si].lastDelta
			}
			res.Samples = append(res.Samples, samples)
		}

		allDone := anyTarget
		for i, si := range r.live {
			s := &r.slots[si]
			a := &res.Apps[i]
			if a.Target == 0 {
				continue
			}
			if done := s.inst.Retired / a.Target; done > launches[i] {
				if a.CompletedAtCycle == 0 {
					a.CompletedAtCycle = r.Now()
					a.CompletedAtQuantum = r.Slices() - 1
				}
				launches[i] = done
				s.inst.Relaunch()
			}
			allDone = allDone && a.CompletedAtCycle > 0
		}
		if allDone {
			break
		}
	}
	res.Quanta = r.Slices()

	res.AllCompleted = true
	for i, si := range r.live {
		a := &res.Apps[i]
		a.Retired = r.slots[si].inst.Retired
		if a.CompletedAtCycle > 0 {
			a.IPC = float64(a.Target) / float64(a.CompletedAtCycle)
		} else if a.Target > 0 {
			res.AllCompleted = false
		}
	}
	return res, nil
}

// RunPinned executes applications pinned to one core for the given number
// of quanta, model i with seed i on hardware thread i, and returns each
// application's per-quantum samples. A core whose SMT level is below the
// application count is raised to it (so pair collection works on an SMT1
// machine configuration). One application is the isolated run behind the
// Fig. 4 characterization, the §IV-C training profiles and the §V-B
// targets; two are the §IV-C SMT pair runs.
func RunPinned(models []*apps.Model, seeds []uint64, quanta int, cfg Config) ([][]pmu.Counters, error) {
	if len(models) == 0 || len(seeds) != len(models) {
		return nil, fmt.Errorf("machine: %d models with %d seeds", len(models), len(seeds))
	}
	cfg.Cores = 1
	if cfg.Core.Level() < len(models) {
		cfg.Core.SMTLevel = len(models)
	}
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	banks := make([]pmu.Bank, len(models))
	for i, model := range models {
		banks[i].Enable()
		m.cores[0].Bind(i, apps.NewInstance(model, seeds[i]), &banks[i])
	}

	out := make([][]pmu.Counters, len(models))
	for i := range out {
		out[i] = make([]pmu.Counters, 0, quanta)
	}
	prev := make([]pmu.Counters, len(models))
	t0 := perfstat.PhaseClock()
	for q := 0; q < quanta; q++ {
		m.cores[0].Run(cfg.QuantumCycles)
		for i := range banks {
			snap := banks[i].Read()
			out[i] = append(out[i], snap.Delta(prev[i]))
			prev[i] = snap
		}
	}
	perfstat.PhaseAdd(perfstat.PhaseSimulation, t0)
	return out, nil
}
