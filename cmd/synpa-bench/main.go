// Command synpa-bench regenerates the paper's tables and figures on the
// simulated system. Each experiment prints the same rows/series the paper
// reports (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	synpa-bench -experiment all            # everything (slow)
//	synpa-bench -experiment fig5           # one experiment
//	synpa-bench -experiment fig5 -reps 9   # the paper's repetition count
//	synpa-bench -experiment smt4           # SMT2-vs-SMT4 comparison table
//	synpa-bench -experiment dynamic -smt 4 # any experiment at another SMT level
//	synpa-bench -list                      # list experiment names
//
// Performance tracking:
//
//	synpa-bench -experiment all -perfstat auto        # next BENCH_NNNN.json
//	synpa-bench -experiment all -perfstat run.json    # explicit path
//	synpa-bench -experiment all -fastforward=false    # reference engine
//
// The perfstat report records each experiment's wall time and allocation
// churn plus the run configuration, so committed BENCH_*.json files form a
// performance trajectory across changes. Placement latency and throughput,
// in process and served by synpad, are measured by the repository
// benchmark instead (perfbench/, e.g. its synpad-loop workload).
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	admpkg "synpa/internal/admission"
	"synpa/internal/experiments"
	"synpa/internal/machine"
	"synpa/internal/obs"
	"synpa/internal/perfstat"
)

// runMachineCfg mirrors the suite's per-run machine derivation: when the
// suite fans runs out across CPUs itself, every run's machine is forced
// serial (experiments.Suite.Run), so that is the configuration whose
// effective worker count the BENCH metadata must report.
func runMachineCfg(cfg experiments.Config) machine.Config {
	mc := cfg.Machine
	if cfg.Parallel {
		mc.Parallel = false
	}
	return mc
}

func main() {
	var (
		exp        = flag.String("experiment", "all", "experiment to run (see -list)")
		list       = flag.Bool("list", false, "list available experiments")
		reps       = flag.Int("reps", 0, "repetitions per workload (default: suite default; paper uses 9)")
		smt        = flag.Int("smt", 0, "SMT level: hardware threads per core, 1-4 (default: the paper's SMT2 BIOS setting)")
		quantum    = flag.Uint64("quantum", 0, "scheduling quantum in cycles (default: suite default)")
		refQ       = flag.Int("refquanta", 0, "isolated reference interval in quanta (default: suite default)")
		seed       = flag.Uint64("seed", 0, "random seed (default: suite default)")
		parallel   = flag.Bool("parallel", true, "fan runs out over CPUs")
		admission  = flag.String("admission", "", "open-system admission discipline for the dynamic experiment: fifo (default) | sjf | priority | backfill (dynprio compares all four regardless)")
		workers    = flag.Int("workers", 0, "worker goroutines stepping cores within each run's quanta (0 = GOMAXPROCS, 1 = serial; bit-identical at any count; effective when per-run parallelism is active, e.g. -parallel=false)")
		format     = flag.String("format", "text", "output format: text | json | csv")
		ff         = flag.Bool("fastforward", true, "enable the event-driven core fast-forward engine (observationally equivalent; disable to time the per-cycle reference)")
		perfOut    = flag.String("perfstat", "", "write per-experiment wall-time/alloc JSON to this path ('auto' picks the next BENCH_NNNN.json)")
		fleetM     = flag.Int("fleet-machines", 0, "dynfleet-scale cluster size (0 = 500)")
		fleetJ     = flag.Int("fleet-jobs", 0, "dynfleet-scale stream length (0 = 1,000,000)")
		traceOut   = flag.String("trace-out", "", "write the run's event trace to this '[format:]path' (formats: chrome = Perfetto trace-event JSON, jsonl; default by extension). Needs a single -experiment and forces -parallel=false so the trace stays deterministic")
		metricsOut = flag.String("metrics-out", "", "write the metrics registry snapshot (counters/histograms, JSON) to this path; byte-stable across runs when -parallel=false")
	)
	flag.Parse()

	var traceFormat, tracePath string
	if *traceOut != "" {
		var err error
		if traceFormat, tracePath, err = obs.ParseTraceDest(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "synpa-bench: -trace-out:", err)
			os.Exit(2)
		}
		if *exp == "all" {
			fmt.Fprintln(os.Stderr, "synpa-bench: -trace-out records a single experiment; pick one with -experiment (see -list)")
			os.Exit(2)
		}
	}

	cfg := experiments.DefaultConfig()
	if *reps > 0 {
		cfg.Reps = *reps
	}
	if *smt > 0 {
		cfg.Machine.Core.SMTLevel = *smt
		if err := cfg.Machine.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "synpa-bench: -smt %d: %v\n", *smt, err)
			os.Exit(2)
		}
	}
	if *quantum > 0 {
		cfg.Machine.QuantumCycles = *quantum
	}
	if *refQ > 0 {
		cfg.RefQuanta = *refQ
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Parallel = *parallel
	// Fail fast on a bad discipline instead of minutes into an -experiment
	// all pass (and never record a bogus name in the perfstat metadata).
	if _, err := admpkg.ByName(*admission); err != nil {
		fmt.Fprintf(os.Stderr, "synpa-bench: -admission: %v\n", err)
		os.Exit(2)
	}
	cfg.Admission = *admission
	cfg.Machine.Workers = *workers
	cfg.Machine.FastForward = *ff
	if *perfOut != "" {
		perfstat.EnablePhases(true)
	}
	if *traceOut != "" || *metricsOut != "" {
		// The bench observer shares the global registry, so the metrics
		// snapshot and the BENCH phases view read the same accumulators.
		// Event tracing additionally needs a serial suite: counters commute,
		// trace appends do not.
		o := &obs.Observer{Reg: obs.Global()}
		if *traceOut != "" {
			o.Trace = obs.NewTrace(0)
			cfg.Parallel = false
		}
		cfg.Obs = o
	}
	// cfg.Train.Machine needs no mirroring: Suite.Model always trains on
	// cfg.Machine.
	s := experiments.NewSuite(cfg)

	type experiment struct {
		name string
		run  func() (*experiments.Table, error)
	}
	exps := []experiment{
		{"table1", s.TableI},
		{"table2", s.TableII},
		{"fig2", func() (*experiments.Table, error) { return s.Fig2("mcf") }},
		{"fig4", s.Fig4},
		{"table3", s.TableIII},
		{"table4", s.TableIV},
		{"fig5", s.Fig5},
		{"fig6-be1", func() (*experiments.Table, error) { return s.Fig6("be1") }},
		{"fig6-fe2", func() (*experiments.Table, error) { return s.Fig6("fe2") }},
		{"fig6-fb2", func() (*experiments.Table, error) { return s.Fig6("fb2") }},
		{"table5", s.TableV},
		{"fig7", s.Fig7},
		{"fig8", s.Fig8},
		{"fig9", s.Fig9},
		{"ablation-tencat", s.AblationTenCategory},
		{"ablation-reveals", s.AblationRevealsSplit},
		{"ablation-matcher", s.AblationMatcher},
		{"ablation-inversion", s.AblationInversion},
		{"ablation-quantum", s.AblationQuantum},
		{"overhead-model", s.OverheadModelEquations},
		{"overhead-matching", s.OverheadMatching},
		{"overhead-grouping", s.OverheadGrouping},
		{"dynamic", s.DynamicTable},
		{"dynprio", s.DynPrioTable},
		{"dynfleet", s.DynFleetTable},
		{"dynfleet-scale", func() (*experiments.Table, error) {
			return s.DynFleetScale(experiments.FleetScaleOptions{Machines: *fleetM, Jobs: *fleetJ})
		}},
		{"smt4", s.SMT4Table},
	}

	if *list {
		names := make([]string, len(exps))
		for i, e := range exps {
			names[i] = e.name
		}
		sort.Strings(names)
		fmt.Println(strings.Join(names, "\n"))
		return
	}

	var collector perfstat.Collector
	// Watch the heap high-water mark across the whole measured run: the
	// fleet's bounded-memory claim (peak O(machines + classes), not
	// O(jobs)) is pinned by the peak_heap_bytes this records.
	var heapWatch *perfstat.HeapWatch
	if *perfOut != "" {
		heapWatch = perfstat.StartHeapWatch(0)
	}
	ran := 0
	for _, e := range exps {
		if *exp != "all" && e.name != *exp {
			continue
		}
		start := time.Now()
		var tab *experiments.Table
		err := collector.Measure(e.name, func() error {
			var err error
			tab, err = e.run()
			return err
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "synpa-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		switch *format {
		case "json":
			if err := tab.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "synpa-bench:", err)
				os.Exit(1)
			}
		case "csv":
			if err := tab.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "synpa-bench:", err)
				os.Exit(1)
			}
		default:
			fmt.Printf("# %s (%.1fs)\n%s\n", e.name, time.Since(start).Seconds(), tab)
		}
		ran++
	}
	if ran == 0 {
		names := make([]string, len(exps))
		for i, e := range exps {
			names[i] = e.name
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "synpa-bench: unknown experiment %q\nvalid experiments: all, %s\n",
			*exp, strings.Join(names, ", "))
		os.Exit(1)
	}

	if *traceOut != "" {
		if err := obs.WriteTraceFile(tracePath, traceFormat, cfg.Obs.Trace); err != nil {
			fmt.Fprintln(os.Stderr, "synpa-bench: -trace-out:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "synpa-bench: trace written to %s (%s, %d events, %d dropped)\n",
			tracePath, traceFormat, len(cfg.Obs.Trace.Events()), cfg.Obs.Trace.Dropped())
	}
	if *metricsOut != "" {
		if err := obs.WriteMetricsFile(*metricsOut, obs.Global()); err != nil {
			fmt.Fprintln(os.Stderr, "synpa-bench: -metrics-out:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "synpa-bench: metrics written to %s\n", *metricsOut)
	}

	if *perfOut != "" {
		path := *perfOut
		if path == "auto" {
			var err error
			path, err = perfstat.NextBenchPath(".")
			if err != nil {
				fmt.Fprintln(os.Stderr, "synpa-bench:", err)
				os.Exit(1)
			}
		}
		heap := heapWatch.Stop()
		report := collector.Report(map[string]string{
			"experiment": *exp,
			"smt":        strconv.Itoa(cfg.Machine.ThreadsPerCore()),
			"reps":       strconv.Itoa(cfg.Reps),
			"quantum":    strconv.FormatUint(cfg.Machine.QuantumCycles, 10),
			"ref_quanta": strconv.Itoa(cfg.RefQuanta),
			"seed":       strconv.FormatUint(cfg.Seed, 10),
			// The effective parallelism of this run, so committed
			// BENCH_*.json trajectories stay interpretable: the GOMAXPROCS
			// the process actually had and the worker count the per-run
			// machines actually resolved (the suite forces per-run
			// serialism while it fans runs out itself, exactly as
			// experiments.Suite.Run does).
			"admission":   cmp.Or(cfg.Admission, "fifo"),
			"gomaxprocs":  strconv.Itoa(runtime.GOMAXPROCS(0)),
			"workers":     strconv.Itoa(runMachineCfg(cfg).EffectiveWorkers()),
			"fastforward": strconv.FormatBool(*ff),
			"parallel":    strconv.FormatBool(*parallel),
			// Heap high-water over the measured region: peak live bytes
			// plus total allocation churn. For dynfleet-scale this is the
			// bounded-memory evidence — the peak must track the machine
			// count, never the (orders-of-magnitude larger) job count.
			"peak_heap_bytes": strconv.FormatUint(heap.PeakHeapBytes, 10),
			"alloc_bytes":     strconv.FormatUint(heap.AllocBytes, 10),
			"allocs":          strconv.FormatUint(heap.Allocs, 10),
			"num_gc":          strconv.FormatUint(uint64(heap.NumGC), 10),
		})
		if err := report.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "synpa-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "synpa-bench: perfstat written to %s (total %.1fs)\n",
			path, report.TotalWallSeconds)
		for _, name := range []string{"policy", "simulation", "matching", "dispatch"} {
			if s, ok := report.Phases[name]; ok {
				fmt.Fprintf(os.Stderr, "synpa-bench: phase %-10s %8.2fs\n", name, s)
			}
		}
	}
}
