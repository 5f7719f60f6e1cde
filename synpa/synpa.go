// Package synpa is the public API of the SYNPA reproduction: a thread-to-
// core allocation library for SMT processors driven by ARM dispatch-stage
// performance counters, after "SYNPA: SMT Performance Analysis and
// Allocation of Threads to Cores in ARM Processors" (Navarro, Feliu, Petit,
// Gómez, Sahuquillo).
//
// The package wraps the building blocks under internal/ into a small
// workflow:
//
//	sys, _ := synpa.New(synpa.DefaultConfig())
//	model, _, _ := sys.TrainDefaultModel()          // §IV-C training
//	report, _ := sys.Run(
//	    []string{"lbm_r", "mcf", "cactuBSSN_r", "mcf",
//	             "leela_r", "leela_r", "astar", "mcf_r"}, // the paper's fb2
//	    sys.SYNPAPolicy(model))
//	fmt.Println(report.TurnaroundCycles)
//
// Because real ThunderX2 hardware is not available here, the "machine" is
// the cycle-level SMT2 simulator of internal/smtcore and applications are
// the calibrated synthetic models of internal/apps; the policy logic
// consumes only ARM PMU counter values and would drive the real
// perf + sched_setaffinity backend unchanged (see DESIGN.md).
package synpa

import (
	"fmt"
	"io"

	"synpa/internal/admission"
	"synpa/internal/apps"
	"synpa/internal/core"
	"synpa/internal/machine"
	"synpa/internal/metrics"
	"synpa/internal/pmu"
	"synpa/internal/predcache"
	"synpa/internal/sched"
	"synpa/internal/smtcore"
	"synpa/internal/train"
	"synpa/internal/workload"
)

// Re-exported building blocks, so user code only imports this package.
type (
	// Model is a fitted interference model (Eq. 1 per category).
	Model = core.Model
	// Coefficients holds one category's Eq. 1 parameters.
	Coefficients = core.Coefficients
	// Policy decides the thread-to-core allocation each quantum. Custom
	// policies implement this interface; see examples/custom-policy.
	Policy = machine.Policy
	// QuantumState is the per-quantum information handed to a Policy.
	QuantumState = machine.QuantumState
	// Placement maps application index to core index.
	Placement = machine.Placement
	// PolicyOptions tune the SYNPA policy (matcher, the inversion
	// ablation, smoothing, hysteresis, name). The model fixes the rest:
	// its category count picks the extractor, so 3- and 10-category
	// models are servable and any other count is refused.
	PolicyOptions = core.PolicyOptions
	// PredCacheOptions tunes a SharedPredCache (its entry bound). The
	// SYNPA policy has no memo unless one is installed, and a policy that
	// should not memoize installs none; exact-key memoization is
	// bit-identical by construction.
	PredCacheOptions = predcache.Options
	// SharedPredCache is a sharded concurrent prediction memo one whole
	// fleet (or any number of concurrent PlaceR callers) shares; build
	// with NewSharedPredCache and hand to FleetConfig.SharedCache.
	SharedPredCache = predcache.Shared
	// PlacementArena is the per-request state of the reentrant policy
	// path: SYNPAPolicy.NewArena/PlaceR serve concurrent placement
	// queries share-nothing on one trained policy.
	PlacementArena = core.Arena
	// TrainOptions tune the §IV-C training pipeline.
	TrainOptions = train.Options
	// TrainReport summarises a training run.
	TrainReport = train.Report
)

// Counters is a snapshot of one application's PMU counters; QuantumState
// hands policies one delta per application per quantum.
type Counters = pmu.Counters

// Event identifies a hardware performance event.
type Event = pmu.Event

// The four architectural events of paper Table I, re-exported for custom
// policies.
const (
	CPUCycles     = pmu.CPUCycles
	InstSpec      = pmu.InstSpec
	StallFrontend = pmu.StallFrontend
	StallBackend  = pmu.StallBackend
	InstRetired   = pmu.InstRetired
)

// PaperModel returns the coefficients published in paper Table IV (fitted
// on the authors' ThunderX2). Models trained with TrainDefaultModel on the
// simulated system are preferred for running experiments here; the paper
// model is the documented reference point.
func PaperModel() *Model { return core.PaperCoefficients() }

// Config describes the simulated system a System runs on.
type Config struct {
	// Cores is the number of SMT cores (default 4, enough for the
	// paper's 8-application workloads at SMT2).
	Cores int
	// SMTLevel is the number of hardware threads per core — the BIOS knob
	// of §V-A. The ThunderX2 hardware supports up to SMT4; the paper (and
	// a zero value) selects SMT2. Above SMT2 the SYNPA policy solves a
	// grouping problem instead of a pairwise matching (internal/grouping).
	SMTLevel int
	// QuantumCycles is the scheduling quantum length in cycles.
	QuantumCycles uint64
	// RefQuanta is the isolated reference interval used to derive each
	// application's instruction target (§V-B methodology).
	RefQuanta int
	// Seed makes every run reproducible.
	Seed uint64
	// Workers bounds the worker goroutines that shard per-core stepping
	// within each scheduling quantum (machine.Config.Workers). Zero
	// selects GOMAXPROCS; one disables intra-run parallelism. Results are
	// bit-identical at every worker count.
	Workers int
	// Admission selects the open-system admission discipline that orders
	// the waiting queue when arrivals exceed the free hardware threads:
	// "fifo" (default), "sjf", "priority" (aged classes) or "backfill"
	// (EASY-style head-protected shortest-first). Closed-system Run is
	// unaffected. See internal/admission for the discipline semantics.
	Admission string
	// Obs, when non-nil, records every run's event trace and metrics (see
	// NewObserver and the exporters in obs.go). Observability never
	// perturbs simulation results; a nil Obs costs one nil check per
	// instrumented site.
	Obs *Observer
}

// AdmissionPolicies lists the valid Config.Admission values.
func AdmissionPolicies() []string { return admission.Names() }

// DefaultConfig returns the paper-equivalent defaults.
func DefaultConfig() Config {
	return Config{Cores: 4, SMTLevel: smtcore.DefaultSMTLevel, QuantumCycles: 20_000, RefQuanta: 100, Seed: 1}
}

// System is a simulated ARM SMT machine plus the measurement methodology
// needed to run multi-program workloads and report the paper's metrics.
type System struct {
	cfg     Config
	machCfg machine.Config
	adm     admission.Policy
	targets *workload.TargetCache
}

// New creates a System. It validates the configuration.
func New(cfg Config) (*System, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.QuantumCycles == 0 {
		cfg.QuantumCycles = 20_000
	}
	if cfg.RefQuanta <= 0 {
		cfg.RefQuanta = 100
	}
	mc := machine.DefaultConfig()
	mc.Cores = cfg.Cores
	mc.Core.SMTLevel = cfg.SMTLevel
	mc.QuantumCycles = cfg.QuantumCycles
	mc.Workers = cfg.Workers
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	adm, err := admission.ByName(cfg.Admission)
	if err != nil {
		return nil, fmt.Errorf("synpa: %w", err)
	}
	return &System{
		cfg:     cfg,
		machCfg: mc,
		adm:     adm,
		targets: workload.NewTargetCache(mc, cfg.RefQuanta, cfg.Seed),
	}, nil
}

// Applications lists the 28 available application models (paper Table III).
func (s *System) Applications() []string { return apps.Names() }

// TrainDefaultModel trains the three-category interference model on the
// paper's 22-application training set with default options.
func (s *System) TrainDefaultModel() (*Model, *TrainReport, error) {
	opts := train.DefaultOptions()
	opts.Machine = s.machCfg
	return train.Train(apps.TrainingSet(), opts)
}

// TrainModel trains a model on an explicit application list with custom
// options. Zero-value fields of opts fall back to defaults, field by field:
// a caller setting only SampleFrac keeps its SampleFrac and inherits
// default quanta counts, and vice versa. The machine configuration is
// always the System's.
func (s *System) TrainModel(appNames []string, opts TrainOptions) (*Model, *TrainReport, error) {
	models, err := resolve(appNames)
	if err != nil {
		return nil, nil, err
	}
	def := train.DefaultOptions()
	// A fully zero options value means "use the defaults", including the
	// parallel fan-out; a false Parallel alongside any customised field is
	// an explicit request for a serial run and is honoured.
	if opts.IsolatedQuanta == 0 && opts.PairQuanta == 0 && opts.SampleFrac == 0 &&
		opts.Seed == 0 && opts.Extract == nil && opts.Categories == nil && !opts.Parallel {
		opts.Parallel = def.Parallel
	}
	if opts.IsolatedQuanta == 0 {
		opts.IsolatedQuanta = def.IsolatedQuanta
	}
	if opts.PairQuanta == 0 {
		opts.PairQuanta = def.PairQuanta
	}
	if opts.SampleFrac == 0 {
		opts.SampleFrac = def.SampleFrac
	}
	if opts.Seed == 0 {
		opts.Seed = def.Seed
	}
	opts.Machine = s.machCfg
	return train.Train(models, opts)
}

// SYNPAPolicy builds the paper's allocation policy around a trained model.
// It panics on a model SYNPAPolicyWithOptions refuses: an invalid one, or
// one whose category count has no extractor (neither 3 nor 10).
func (s *System) SYNPAPolicy(m *Model) Policy {
	return core.MustPolicy(m, core.PolicyOptions{})
}

// SYNPAPolicyWithOptions builds a SYNPA variant (alternative matcher,
// disabled inversion) for ablation studies. It errors on an invalid model
// and on one whose category count has no extractor.
func (s *System) SYNPAPolicyWithOptions(m *Model, opt PolicyOptions) (Policy, error) {
	return core.NewPolicy(m, opt)
}

// NewSharedPredCache builds a sharded concurrent prediction memo (shards
// 0 selects the predcache default). Hand it to FleetConfig.SharedCache so
// every machine shares one warm cache, or install it on a SYNPA policy
// (core.Policy.SetSharedCache) to serve concurrent PlaceR callers.
// Sharing is bit-identical by construction: a hit implies bit-identical
// inputs to a pure function, so no output can depend on who warmed an
// entry first.
func NewSharedPredCache(opt PredCacheOptions, shards int) *SharedPredCache {
	return predcache.NewShared(opt, shards)
}

// LinuxPolicy returns the arrival-order baseline the paper compares
// against.
func (s *System) LinuxPolicy() Policy { return sched.Linux{} }

// RandomPolicy returns a policy that re-pairs applications randomly every
// quantum.
func (s *System) RandomPolicy(seed uint64) Policy { return sched.NewRandom(seed) }

// AppReport is one application's outcome within a Run.
type AppReport struct {
	// Name is the benchmark name.
	Name string
	// TurnaroundCycles is when the app first completed its target.
	TurnaroundCycles uint64
	// IPC is target instructions / turnaround cycles.
	IPC float64
	// IndividualSpeedup is IPC divided by the app's isolated IPC (<= ~1).
	IndividualSpeedup float64
}

// RunReport is the outcome of one workload execution, carrying the paper's
// §VI metrics.
type RunReport struct {
	// Policy is the allocation policy used.
	Policy string
	// TurnaroundCycles is the workload turnaround time (slowest app).
	TurnaroundCycles uint64
	// Quanta is the number of scheduling quanta executed.
	Quanta int
	// Apps holds per-application results in workload order.
	Apps []AppReport
	// Fairness is 1 − σ/µ over the individual speedups (§VI-D).
	Fairness float64
	// IPCGeomean is the workload IPC (geometric mean over apps).
	IPCGeomean float64
	// ANTT is the average normalized turnaround time (lower is better).
	ANTT float64
	// STP is the system throughput in isolated-app units.
	STP float64
}

// Run executes the named applications (up to SMTLevel per core) under the
// given policy, using the paper's §V-B methodology: per-application instruction
// targets from isolated reference runs, relaunch-on-completion to keep the
// machine loaded, and completion of the slowest application as the workload
// turnaround time.
func (s *System) Run(appNames []string, policy Policy) (*RunReport, error) {
	if policy == nil {
		return nil, fmt.Errorf("synpa: nil policy")
	}
	models, err := resolve(appNames)
	if err != nil {
		return nil, err
	}
	targets := make([]uint64, len(models))
	isoIPC := make([]float64, len(models))
	for i, m := range models {
		if targets[i], err = s.targets.Target(m); err != nil {
			return nil, err
		}
		if isoIPC[i], err = s.targets.IsolatedIPC(m); err != nil {
			return nil, err
		}
	}
	mach, err := machine.New(s.machCfg)
	if err != nil {
		return nil, err
	}
	res, err := mach.Run(models, targets, policy, machine.RunnerOptions{Seed: s.cfg.Seed, Obs: s.cfg.Obs})
	if err != nil {
		return nil, err
	}
	tt, err := metrics.TurnaroundCycles(res)
	if err != nil {
		return nil, err
	}
	speedups, err := metrics.IndividualSpeedups(res, isoIPC)
	if err != nil {
		return nil, err
	}
	ipcGeo, err := metrics.GeomeanIPC(res)
	if err != nil {
		return nil, err
	}

	fairness, err := metrics.Fairness(speedups)
	if err != nil {
		return nil, err
	}
	antt, err := metrics.ANTT(speedups)
	if err != nil {
		return nil, err
	}

	rep := &RunReport{
		Policy:           res.Policy,
		TurnaroundCycles: tt,
		Quanta:           res.Quanta,
		Fairness:         fairness,
		IPCGeomean:       ipcGeo,
		ANTT:             antt,
		STP:              metrics.STP(speedups),
	}
	for i := range res.Apps {
		rep.Apps = append(rep.Apps, AppReport{
			Name:              res.Apps[i].Name,
			TurnaroundCycles:  res.Apps[i].CompletedAtCycle,
			IPC:               res.Apps[i].IPC,
			IndividualSpeedup: speedups[i],
		})
	}
	return rep, nil
}

// Trace is an open-system arrival schedule: applications arrive at their
// trace cycles, run their finite work and depart (contrast with Run, whose
// closed system keeps every application resident forever).
type Trace = workload.Trace

// TraceEntry is one arrival of a Trace.
type TraceEntry = workload.TraceEntry

// ParseTrace reads a scripted trace in the line format
// "<arrive_cycle> <app_name> [work_factor]" (see workload.ParseTrace).
func ParseTrace(name string, r io.Reader) (Trace, error) { return workload.ParseTrace(name, r) }

// PoissonTrace generates a deterministic trace with Poisson arrivals drawn
// from the given application pool; work scales each app's reference target
// (0 means the full reference work).
func PoissonTrace(name string, seed uint64, pool []string, n int, meanGapCycles, work float64) Trace {
	return workload.PoissonTrace(name, seed, pool, n, meanGapCycles, work)
}

// ClassShare is one priority class's share of a mixed-priority trace.
type ClassShare = workload.ClassShare

// PoissonTraceMixed generates a deterministic Poisson trace whose arrivals
// draw a priority class (and class weight) from the given mix, with
// probability proportional to each class's Share.
func PoissonTraceMixed(name string, seed uint64, pool []string, n int, meanGapCycles, work float64, mix []ClassShare) Trace {
	return workload.PoissonTraceMixed(name, seed, pool, n, meanGapCycles, work, mix)
}

// DynamicAppReport is one application's outcome within a dynamic run.
type DynamicAppReport struct {
	// Name is the benchmark name.
	Name string
	// Priority is the app's class (higher = more urgent, default 0) and
	// Weight its class weight in the weighted-STP summary (0 means 1).
	Priority int
	Weight   float64
	// ArriveAt and FinishAt bracket the app's life (cycles); FinishAt is
	// meaningless unless Finished is true.
	ArriveAt, FinishAt uint64
	// Finished reports whether the app completed its work within the run
	// bound. This — not a zero FinishAt — is the completion test: cycle 0
	// is a legitimate finish stamp for zero-length work at cycle 0.
	Finished bool
	// Admitted reports whether the app ever got a hardware thread; in an
	// overloaded bounded run an arrival can stay queued to the end.
	Admitted bool
	// AdmittedAt is when the app first got a hardware thread (> ArriveAt
	// when it had to queue behind a full machine). Meaningless when
	// Admitted is false.
	AdmittedAt uint64
	// ResponseCycles is FinishAt − ArriveAt: queueing plus execution.
	ResponseCycles uint64
	// NormalizedResponse is ResponseCycles divided by the app's isolated
	// execution time for the same work (≥ ~1; lower is better). 0 if the
	// app never finished.
	NormalizedResponse float64
	// IPC is target instructions / response cycles.
	IPC float64
}

// ClassReport is one priority class's metrics within a DynamicReport:
// per-class ANTT, mean/p95 response and the class weight (see
// workload.ClassStats for the field semantics).
type ClassReport = workload.ClassStats

// DynamicReport is the outcome of one open-system trace execution.
type DynamicReport struct {
	// Policy is the allocation policy used.
	Policy string
	// Admission is the admission discipline that ordered the waiting
	// queue ("fifo" unless Config.Admission chose otherwise).
	Admission string
	// Trace is the trace name.
	Trace string
	// Cycles is the simulated time span; Slices counts policy invocations
	// (quantum boundaries plus off-quantum admissions).
	Cycles uint64
	Slices int
	// Apps holds per-application results in trace order.
	Apps []DynamicAppReport
	// Completed counts apps that finished; Deferred counts arrivals that
	// queued for a hardware thread.
	Completed, Deferred int
	// MeanResponseCycles averages response time over completed apps.
	MeanResponseCycles float64
	// ANTT is the mean normalized response time over completed apps — the
	// open-system analogue of the closed system's ANTT (lower is better).
	ANTT float64
	// STP is the completed isolated-app work per cycle: Σ isolated-time of
	// completed apps / Cycles, in "isolated applications" units (higher is
	// better; bounded by the hardware-thread count).
	STP float64
	// WeightedSTP is STP with each completed app's isolated work scaled
	// by its class weight, normalized by the mean weight of completed
	// apps (uniform weights reproduce STP exactly) — the batch-throughput
	// side of the per-class latency trade.
	WeightedSTP float64
	// PerClass breaks the response-time metrics out by priority class,
	// most urgent first. Empty when every arrival is class 0 with default
	// weight.
	PerClass []ClassReport
	// MeanLiveApps is the time-averaged number of live applications;
	// Occupancy normalises it by the hardware-thread capacity.
	MeanLiveApps float64
	Occupancy    float64
	// AllCompleted reports whether every arrival finished within bound.
	AllCompleted bool
}

// RunDynamic executes an open-system trace under the given policy:
// applications arrive at their trace cycles (queueing when the machine is
// full), run to true completion — no relaunch — and depart, so cores run
// partially occupied and the live-application count can be odd. Targets
// come from the same §V-B isolated-reference methodology as Run, scaled by
// each entry's Work factor.
func (s *System) RunDynamic(trace Trace, policy Policy) (*DynamicReport, error) {
	if policy == nil {
		return nil, fmt.Errorf("synpa: nil policy")
	}
	work, isoCycles, err := s.targets.DynamicWork(trace)
	if err != nil {
		return nil, err
	}
	mach, err := machine.New(s.machCfg)
	if err != nil {
		return nil, err
	}
	res, err := mach.RunDynamic(work, policy, machine.DynamicOptions{Seed: s.cfg.Seed, Admission: s.adm, Obs: s.cfg.Obs})
	if err != nil {
		return nil, err
	}

	stats := workload.SummarizeDynamic(res, isoCycles)
	rep := &DynamicReport{
		Policy:             res.Policy,
		Admission:          res.Admission,
		Trace:              trace.Name,
		Cycles:             res.Cycles,
		Slices:             res.Slices,
		Deferred:           res.Deferred,
		MeanLiveApps:       res.MeanLiveApps,
		AllCompleted:       res.AllCompleted,
		Completed:          stats.Completed,
		MeanResponseCycles: stats.MeanResponseCycles,
		ANTT:               stats.ANTT,
		STP:                stats.STP,
		WeightedSTP:        stats.WeightedSTP,
		PerClass:           stats.PerClass,
	}
	if hw := float64(s.MaxAppsPerRun()); hw > 0 {
		rep.Occupancy = res.MeanLiveApps / hw
	}
	for i := range res.Apps {
		a := res.Apps[i]
		ar := DynamicAppReport{
			Name:           a.Name,
			Priority:       a.Priority,
			Weight:         a.Weight,
			ArriveAt:       a.ArriveAt,
			Admitted:       a.Admitted,
			AdmittedAt:     a.AdmittedAt,
			Finished:       a.Finished,
			FinishAt:       a.FinishAt,
			ResponseCycles: a.ResponseCycles,
			IPC:            a.IPC,
		}
		if a.Finished && a.ResponseCycles > 0 {
			ar.NormalizedResponse = float64(a.ResponseCycles) / isoCycles[i]
		}
		rep.Apps = append(rep.Apps, ar)
	}
	return rep, nil
}

// StandardWorkloads returns the names of the paper's twenty workloads
// (be0–be4, fe0–fe4, fb0–fb9) with their application lists.
func (s *System) StandardWorkloads() map[string][]string {
	out := map[string][]string{}
	for _, w := range workload.StandardSet(s.cfg.Seed) {
		out[w.Name] = w.Names()
	}
	return out
}

// MaxAppsPerRun returns the hardware-thread capacity of the system:
// Cores × SMTLevel.
func (s *System) MaxAppsPerRun() int { return s.machCfg.HWThreads() }

// SMTLevel returns the configured hardware threads per core.
func (s *System) SMTLevel() int { return s.machCfg.ThreadsPerCore() }

// resolve maps names to application models.
func resolve(names []string) ([]*apps.Model, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("synpa: empty application list")
	}
	out := make([]*apps.Model, len(names))
	for i, n := range names {
		m, err := apps.ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}
