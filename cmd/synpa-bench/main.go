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
// Engine comparison:
//
//	synpa-bench -experiment all -fastforward=false    # reference engine
//
// Each text table is headed by the experiment's wall time. Performance
// figures — simulation throughput, placement latency and throughput, peak
// heap — are measured by the repository benchmark instead (perfbench/).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	admpkg "synpa/internal/admission"
	"synpa/internal/experiments"
	"synpa/internal/obs"
)

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
		fleetM     = flag.Int("fleet-machines", 0, "dynfleet-scale cluster size (0 = 500)")
		fleetJ     = flag.Int("fleet-jobs", 0, "dynfleet-scale stream length (0 = 1,000,000)")
		traceOut   = flag.String("trace-out", "", "write the run's event trace to this '[format:]path' (formats: chrome = Perfetto trace-event JSON, jsonl; default by extension). Needs a single -experiment and forces -parallel=false so the trace stays deterministic")
		metricsOut = flag.String("metrics-out", "", "write the metrics registry snapshot (counters/histograms, JSON) to this path; byte-stable across runs when -parallel=false")
	)
	flag.Parse()

	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(os.Stderr, "synpa-bench: -format %q: want text | json | csv\n", *format)
		os.Exit(2)
	}

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
	// all pass.
	if _, err := admpkg.ByName(*admission); err != nil {
		fmt.Fprintf(os.Stderr, "synpa-bench: -admission: %v\n", err)
		os.Exit(2)
	}
	cfg.Admission = *admission
	cfg.Machine.Workers = *workers
	cfg.Machine.FastForward = *ff
	if *traceOut != "" || *metricsOut != "" {
		// The bench observer shares the global registry. Event tracing
		// additionally needs a serial suite: counters commute, trace
		// appends do not.
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

	ran := 0
	for _, e := range exps {
		if *exp != "all" && e.name != *exp {
			continue
		}
		start := time.Now()
		tab, err := e.run()
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
}
