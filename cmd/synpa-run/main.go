// Command synpa-run executes one multi-program workload under a chosen
// allocation policy and prints the paper's §VI metrics.
//
// Usage:
//
//	synpa-run -workload fb2 -policy synpa
//	synpa-run -workload fb2 -policy linux
//	synpa-run -apps mcf,leela_r,lbm_r,gobmk -policy both
//	synpa-run -trace dyn0 -policy both         # built-in dynamic scenario
//	synpa-run -trace jobs.trace -policy synpa  # scripted arrival trace
//	synpa-run -fleet fleet-sat -policy both    # two-level cluster run
//	synpa-run -fleet fleet-hot -dispatch interference -machines 12
//
// A trace file is line-oriented: "<arrive_cycle> <app_name> [work_factor]",
// with # comments. Applications arrive at their cycles, run their finite
// work (work_factor × the reference instruction target) and depart — the
// open-system counterpart of the closed -workload runs.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"synpa/internal/experiments"
	"synpa/internal/obs"
	"synpa/synpa"
)

func main() {
	var (
		wlName     = flag.String("workload", "fb2", "standard workload name (be0-be4, fe0-fe4, fb0-fb9)")
		appList    = flag.String("apps", "", "comma-separated app names (overrides -workload)")
		trace      = flag.String("trace", "", "dynamic run: built-in scenario (dyn0-dyn4, prio-lo/mid/hi) or trace file path (overrides -workload/-apps)")
		fleetName  = flag.String("fleet", "", "fleet run: built-in cluster scenario (fleet-sat, fleet-imb, fleet-hot) streamed through the two-level scheduler (overrides -workload/-apps/-trace)")
		dispatch   = flag.String("dispatch", "", "fleet dispatch discipline: least-loaded (default) | round-robin | interference")
		machines   = flag.Int("machines", 0, "fleet cluster size (0 = the scenario default)")
		policy     = flag.String("policy", "both", "linux | synpa | random | both")
		admission  = flag.String("admission", "", "dynamic-run admission discipline: fifo (default) | sjf | priority | backfill")
		smt        = flag.Int("smt", 0, "SMT level: hardware threads per core, 1-4 (default: the paper's SMT2 BIOS setting)")
		quantum    = flag.Uint64("quantum", 20_000, "scheduling quantum in cycles")
		seed       = flag.Uint64("seed", 1, "random seed")
		workers    = flag.Int("workers", 0, "worker goroutines stepping cores within each quantum (0 = GOMAXPROCS, 1 = serial; results are bit-identical at any count)")
		sharedCch  = flag.Bool("shared-cache", false, "fleet runs: one fleet-wide concurrent inversion memo instead of none (bit-identical by construction; combine with -fleet)")
		traceOut   = flag.String("trace-out", "", "write the run's event trace to this '[format:]path' (formats: chrome = Perfetto trace-event JSON, jsonl; default by extension). Needs a single policy, not -policy both")
		metricsOut = flag.String("metrics-out", "", "write the run's metrics registry snapshot (counters/histograms, JSON) to this path")
	)
	flag.Parse()

	var traceFormat, tracePath string
	if *traceOut != "" {
		var err error
		if traceFormat, tracePath, err = obs.ParseTraceDest(*traceOut); err != nil {
			fatal(fmt.Errorf("-trace-out: %w", err))
		}
		if *policy == "both" {
			fatal(fmt.Errorf("-trace-out records a single run; pick -policy linux, synpa or random"))
		}
	}

	cfg := synpa.DefaultConfig()
	cfg.SMTLevel = *smt
	cfg.QuantumCycles = *quantum
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Admission = *admission
	var observer *synpa.Observer
	if *traceOut != "" || *metricsOut != "" {
		observer = synpa.NewObserver(0)
		cfg.Obs = observer
	}
	exportObs := func() {
		if observer == nil {
			return
		}
		if tracePath != "" {
			if err := obs.WriteTraceFile(tracePath, traceFormat, observer.Trace); err != nil {
				fatal(err)
			}
			fmt.Printf("trace written to %s (%s, %d events, %d dropped)\n",
				tracePath, traceFormat, len(observer.Trace.Events()), observer.Trace.Dropped())
		}
		if *metricsOut != "" {
			if err := obs.WriteMetricsFile(*metricsOut, observer.Reg); err != nil {
				fatal(err)
			}
			fmt.Printf("metrics written to %s\n", *metricsOut)
		}
	}
	sys, err := synpa.New(cfg)
	if err != nil {
		fatal(err)
	}

	if *fleetName != "" {
		runFleet(sys, *fleetName, *dispatch, *policy, *machines, *quantum, *seed, *sharedCch)
		exportObs()
		return
	}
	if *dispatch != "" || *machines != 0 || *sharedCch {
		fatal(fmt.Errorf("-dispatch, -machines and -shared-cache apply to fleet runs only; combine them with -fleet"))
	}
	if *trace != "" {
		runDynamic(sys, *trace, *policy, *quantum, *seed)
		exportObs()
		return
	}
	if *admission != "" {
		fatal(fmt.Errorf("-admission applies to dynamic and fleet runs only; combine it with -trace or -fleet"))
	}

	var names []string
	if *appList != "" {
		for _, n := range strings.Split(*appList, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	} else {
		std := sys.StandardWorkloads()
		var ok bool
		if names, ok = std[*wlName]; !ok {
			valid := make([]string, 0, len(std))
			for name := range std {
				valid = append(valid, name)
			}
			sort.Strings(valid)
			fatal(fmt.Errorf("unknown workload %q; valid workloads: %s",
				*wlName, strings.Join(valid, ", ")))
		}
	}
	fmt.Printf("workload: %s\n\n", strings.Join(names, ", "))

	var model *synpa.Model
	needModel := *policy == "synpa" || *policy == "both"
	if needModel {
		fmt.Println("training interference model (22 apps, all pairs)...")
		m, rep, err := sys.TrainDefaultModel()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trained: %d pairs, %d samples\n\n", rep.Pairs, rep.Samples)
		model = m
	}

	var reports []*synpa.RunReport
	run := func(p synpa.Policy) {
		rep, err := sys.Run(names, p)
		if err != nil {
			fatal(err)
		}
		reports = append(reports, rep)
		printReport(rep)
	}
	switch *policy {
	case "linux":
		run(sys.LinuxPolicy())
	case "synpa":
		run(sys.SYNPAPolicy(model))
	case "random":
		run(sys.RandomPolicy(*seed))
	case "both":
		run(sys.LinuxPolicy())
		run(sys.SYNPAPolicy(model))
	default:
		fatal(fmt.Errorf("unknown policy %q; valid policies: linux, synpa, random, both", *policy))
	}

	if len(reports) == 2 {
		tt := float64(reports[0].TurnaroundCycles) / float64(reports[1].TurnaroundCycles)
		fmt.Printf("TT speedup of %s over %s: %.3f\n", reports[1].Policy, reports[0].Policy, tt)
		fmt.Printf("fairness: %.3f -> %.3f\n", reports[0].Fairness, reports[1].Fairness)
		fmt.Printf("IPC geomean speedup: %.3f\n", reports[1].IPCGeomean/reports[0].IPCGeomean)
	}
	exportObs()
}

// runFleet streams a built-in cluster scenario through the two-level
// scheduler (cluster dispatch over per-machine placement).
func runFleet(sys *synpa.System, scenario, dispatch, policy string, machines int, quantum, seed uint64, sharedCache bool) {
	scenarios := experiments.FleetScenarios(seed, quantum)
	valid := make([]string, len(scenarios))
	var sc *experiments.FleetScenario
	for i := range scenarios {
		valid[i] = scenarios[i].Name
		if scenarios[i].Name == scenario {
			sc = &scenarios[i]
		}
	}
	if sc == nil {
		fatal(fmt.Errorf("unknown fleet scenario %q; valid scenarios: %s",
			scenario, strings.Join(valid, ", ")))
	}
	if dispatch != "" && !slices.Contains(synpa.FleetDispatchers(), dispatch) {
		fatal(fmt.Errorf("unknown dispatch %q; valid dispatchers: %s",
			dispatch, strings.Join(synpa.FleetDispatchers(), ", ")))
	}
	if machines <= 0 {
		machines = sc.Machines
	}
	fmt.Printf("fleet %s: %d machines, %s dispatch\n\n",
		sc.Name, machines, cmp.Or(dispatch, synpa.DispatchLeastLoaded))

	var model *synpa.Model
	if policy == "synpa" || policy == "both" || dispatch == synpa.DispatchInterference {
		fmt.Println("training interference model (22 apps, all pairs)...")
		m, rep, err := sys.TrainDefaultModel()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trained: %d pairs, %d samples\n\n", rep.Pairs, rep.Samples)
		model = m
	}

	run := func(newPolicy func(int) synpa.Policy) {
		fc := synpa.FleetConfig{
			Machines:  machines,
			Dispatch:  dispatch,
			Model:     model,
			NewPolicy: newPolicy,
		}
		if sharedCache {
			// A fresh cache per run keeps the Linux/SYNPA comparison fair:
			// neither run starts warm from the other's traffic.
			fc.SharedCache = synpa.NewSharedPredCache(synpa.PredCacheOptions{}, 0)
		}
		rep, err := sys.RunFleet(fc, sc.Stream())
		if err != nil {
			fatal(err)
		}
		printFleetReport(rep)
	}
	switch policy {
	case "linux":
		run(func(int) synpa.Policy { return sys.LinuxPolicy() })
	case "synpa":
		run(func(int) synpa.Policy { return sys.SYNPAPolicy(model) })
	case "random":
		run(func(int) synpa.Policy { return sys.RandomPolicy(seed) })
	case "both":
		run(func(int) synpa.Policy { return sys.LinuxPolicy() })
		run(func(int) synpa.Policy { return sys.SYNPAPolicy(model) })
	default:
		fatal(fmt.Errorf("unknown policy %q; valid policies: linux, synpa, random, both", policy))
	}
}

func printFleetReport(r *synpa.FleetReport) {
	fmt.Printf("--- %s / %s dispatch (admission: %s) ---\n", r.Policy, r.Dispatch, r.Admission)
	fmt.Printf("span: %d cycles (%d slices)  jobs: %d/%d done  deferred: %d  truncated: %v\n",
		r.Cycles, r.Slices, r.Completed, r.Jobs, r.Deferred, r.Truncated)
	fmt.Printf("mean response=%.0f cycles  p95=%.0f  ANTT=%.3f  STP=%.3f  mean live=%.2f\n",
		r.MeanResponseCycles, r.P95ResponseCycles, r.ANTT, r.STP, r.MeanLive)
	fmt.Printf("machine job share: min=%d max=%d (imbalance %.3f)\n",
		r.MinMachineJobs, r.MaxMachineJobs, r.Imbalance)
	if pc := r.PredCache; pc.InvertHits+pc.InvertMisses > 0 {
		scope := "none"
		if pc.Shared {
			scope = "fleet-shared"
		}
		fmt.Printf("predcache (%s): invert %d/%d hits  resident %d\n",
			scope, pc.InvertHits, pc.InvertHits+pc.InvertMisses, pc.InvertEntries)
	}
	for _, c := range r.PerClass {
		fmt.Printf("  class %d (weight %.1f): %d/%d done  ANTT=%.3f  mean resp=%.0f  p95=%.0f\n",
			c.Priority, c.Weight, c.Completed, c.Jobs, c.ANTT,
			c.MeanResponseCycles, c.P95ResponseCycles)
	}
	if len(r.PerClass) > 0 {
		fmt.Printf("  weighted STP=%.3f\n", r.WeightedSTP)
	}
	fmt.Println()
}

// runDynamic executes an open-system trace under the selected policies.
func runDynamic(sys *synpa.System, traceArg, policy string, quantum, seed uint64) {
	tr, err := loadTrace(traceArg, quantum, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trace %s: %d arrivals over %d cycles\n\n",
		tr.Name, len(tr.Entries), tr.Span())

	var model *synpa.Model
	if policy == "synpa" || policy == "both" {
		fmt.Println("training interference model (22 apps, all pairs)...")
		m, rep, err := sys.TrainDefaultModel()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trained: %d pairs, %d samples\n\n", rep.Pairs, rep.Samples)
		model = m
	}

	run := func(p synpa.Policy) {
		rep, err := sys.RunDynamic(tr, p)
		if err != nil {
			fatal(err)
		}
		printDynamicReport(rep)
	}
	switch policy {
	case "linux":
		run(sys.LinuxPolicy())
	case "synpa":
		run(sys.SYNPAPolicy(model))
	case "random":
		run(sys.RandomPolicy(seed))
	case "both":
		run(sys.LinuxPolicy())
		run(sys.SYNPAPolicy(model))
	default:
		fatal(fmt.Errorf("unknown policy %q; valid policies: linux, synpa, random, both", policy))
	}
}

// loadTrace resolves -trace: a built-in dynamic scenario name (dyn0–dyn4 or
// the mixed-priority prio-lo/mid/hi set) or a trace file. A file wins over a
// same-named scenario when the argument points at the filesystem — it
// contains a path separator or exists on disk — so a local file named "dyn0"
// stays reachable (say it as ./dyn0 or create it; scenario names resolve
// first only when neither holds).
func loadTrace(arg string, quantum, seed uint64) (synpa.Trace, error) {
	scenarios := experiments.DynamicScenarios(seed, quantum)
	scenarios = append(scenarios, experiments.DynPrioScenarios(seed, quantum)...)
	valid := make([]string, len(scenarios))
	scenarioIdx := -1
	for i, tr := range scenarios {
		valid[i] = tr.Name
		if tr.Name == arg {
			scenarioIdx = i
		}
	}
	pathLike := strings.ContainsRune(arg, os.PathSeparator) || strings.ContainsRune(arg, '/')
	if !pathLike {
		if _, err := os.Stat(arg); err == nil {
			pathLike = true
		}
	}
	if scenarioIdx >= 0 && !pathLike {
		return scenarios[scenarioIdx], nil
	}
	f, err := os.Open(arg)
	if err != nil {
		if scenarioIdx >= 0 {
			return scenarios[scenarioIdx], nil
		}
		return synpa.Trace{}, fmt.Errorf("trace %q is neither a built-in scenario nor a readable file (%v); valid scenarios: %s",
			arg, err, strings.Join(valid, ", "))
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(arg), filepath.Ext(arg))
	return synpa.ParseTrace(name, f)
}

func printDynamicReport(r *synpa.DynamicReport) {
	fmt.Printf("--- %s (admission: %s) ---\n", r.Policy, r.Admission)
	fmt.Printf("span: %d cycles (%d slices)  completed: %d/%d  deferred arrivals: %d\n",
		r.Cycles, r.Slices, r.Completed, len(r.Apps), r.Deferred)
	fmt.Printf("mean response=%.0f cycles  ANTT=%.3f  STP=%.3f  occupancy=%.1f%%\n",
		r.MeanResponseCycles, r.ANTT, r.STP, r.Occupancy*100)
	for _, c := range r.PerClass {
		fmt.Printf("  class %d (weight %.1f): %d/%d done  ANTT=%.3f  mean resp=%.0f  p95=%.0f\n",
			c.Priority, c.Weight, c.Completed, c.Apps, c.ANTT,
			c.MeanResponseCycles, c.P95ResponseCycles)
	}
	if len(r.PerClass) > 0 {
		fmt.Printf("  weighted STP=%.3f\n", r.WeightedSTP)
	}
	for i, a := range r.Apps {
		status := appStatus(a)
		prio := ""
		if a.Priority != 0 {
			prio = fmt.Sprintf(" p%d", a.Priority)
		}
		fmt.Printf("  %02d %-13s%s arrive=%-10d %s\n", i, a.Name, prio, a.ArriveAt, status)
	}
	fmt.Println()
}

// appStatus renders one dynamic app's line-item status. Completion is the
// report's explicit Finished flag, not a zero FinishAt — cycle 0 is a
// legitimate finish stamp, not a sentinel.
func appStatus(a synpa.DynamicAppReport) string {
	switch {
	case !a.Admitted:
		return "never admitted (queued to the end)"
	case !a.Finished:
		return "did not finish"
	}
	return fmt.Sprintf("resp=%-10d norm=%.3f IPC=%.3f", a.ResponseCycles, a.NormalizedResponse, a.IPC)
}

func printReport(r *synpa.RunReport) {
	fmt.Printf("--- %s ---\n", r.Policy)
	fmt.Printf("turnaround: %d cycles (%d quanta)\n", r.TurnaroundCycles, r.Quanta)
	fmt.Printf("fairness=%.3f  IPC(geomean)=%.3f  ANTT=%.3f  STP=%.3f\n",
		r.Fairness, r.IPCGeomean, r.ANTT, r.STP)
	for i, a := range r.Apps {
		fmt.Printf("  %02d %-13s TT=%-10d IPC=%.3f speedup=%.3f\n",
			i, a.Name, a.TurnaroundCycles, a.IPC, a.IndividualSpeedup)
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "synpa-run:", err)
	os.Exit(1)
}
