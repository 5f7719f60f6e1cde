// Fleet-scale open-system experiments: the dynfleet family runs the
// two-level scheduler (cluster dispatch over per-machine SYNPA placement)
// on clusters of identical machines, crossing the dispatch disciplines
// with the placement policies over three cluster-shaped arrival streams.
// The scale variant streams a million-job Poisson trace into hundreds of
// machines — the run that exercises the fleet's bounded-memory claim,
// which the repository benchmark checks (perfbench fleet-churn
// peak_heap_mb).
package experiments

import (
	"fmt"

	"synpa/internal/apps"
	"synpa/internal/core"
	"synpa/internal/fleet"
	"synpa/internal/machine"
	"synpa/internal/pool"
	"synpa/internal/predcache"
	"synpa/internal/workload"
)

// fleetPool is the application mix of the fleet streams.
func fleetPool() []string {
	return []string{"mcf", "leela_r", "lbm_r", "gobmk", "cactuBSSN_r", "povray_r", "milc", "perlbench"}
}

// FleetScenario describes one dynfleet cluster scenario. Streams are
// single-use, so the scenario carries a factory.
type FleetScenario struct {
	// Name labels the scenario in tables.
	Name string
	// Machines is the cluster size.
	Machines int
	// Stream builds a fresh arrival stream.
	Stream func() workload.TraceStream
}

// FleetScenarios builds the three dynfleet scenarios over clusters of six
// machines. Gaps are in scheduling quanta, like the dynprio set:
//
//	fleet-sat  steady Poisson arrivals near the cluster's service
//	           capacity — the baseline two-level regime where least-loaded
//	           and interference dispatch should both keep up.
//	fleet-imb  the same process with a 10× job-size spread (mixed class
//	           shares), so load-blind round-robin dispatch builds queues
//	           behind the big jobs that load-aware dispatch avoids.
//	fleet-hot  bursts of twelve simultaneous arrivals separated by quiet
//	           gaps — the hotspot stress where dispatch quality shows up
//	           as the burst's queueing tail.
func FleetScenarios(seed uint64, quantumCycles uint64) []FleetScenario {
	pool := fleetPool()
	q := float64(quantumCycles)
	const machines = 6
	imbMix := []workload.ClassShare{
		{Priority: 0, Weight: 1, Share: 0.7, Work: 0.06},
		{Priority: 1, Weight: 1, Share: 0.3, Work: 0.6},
	}
	return []FleetScenario{
		{
			Name:     "fleet-sat",
			Machines: machines,
			Stream: func() workload.TraceStream {
				return workload.PoissonStream("fleet-sat", seed+21, pool, 120, 0.35*q, 0.25)
			},
		},
		{
			Name:     "fleet-imb",
			Machines: machines,
			Stream: func() workload.TraceStream {
				return workload.PoissonStreamMixed("fleet-imb", seed+22, pool, 120, 0.35*q, 0.25, imbMix)
			},
		},
		{
			Name:     "fleet-hot",
			Machines: machines,
			Stream: func() workload.TraceStream {
				// Ten bursts of twelve jobs, each burst eight quanta after
				// the previous — an arrival pattern no Poisson gap models.
				return workload.StreamFunc("fleet-hot", func(i int) (workload.TraceEntry, bool) {
					if i >= 120 {
						return workload.TraceEntry{}, false
					}
					burst := uint64(i / 12)
					return workload.TraceEntry{
						App:      pool[i%len(pool)],
						ArriveAt: burst * uint64(8*q),
						Work:     0.25,
					}, true
				})
			},
		},
	}
}

// fleetWorkers resolves the fleet-internal worker count: when the suite
// fans independent fleet runs out across CPUs itself, each fleet steps its
// machines serially (the same rule Suite.Run applies to per-run machines).
func (s *Suite) fleetWorkers() int {
	if s.cfg.Parallel {
		return 1
	}
	return s.cfg.Machine.Workers
}

// runFleet executes one scenario under one dispatch discipline and one
// placement factory.
func (s *Suite) runFleet(sc FleetScenario, dispatch string, factory PolicyFactory, model *core.Model) (*fleet.Report, error) {
	src := fleet.NewTraceSource(s.targets, sc.Stream(), s.cfg.Machine.Core.DispatchWidth)
	cfg := fleet.Config{
		Machines:  sc.Machines,
		Machine:   s.cfg.Machine,
		NewPolicy: func(int) machine.Policy { return factory.New() },
		Dispatch:  dispatch,
		Model:     model,
		Admission: s.cfg.Admission,
		Seed:      s.cfg.Seed,
		MaxCycles: uint64(s.cfg.MaxQuanta) * s.cfg.Machine.QuantumCycles,
		Workers:   s.fleetWorkers(),
		Obs:       s.cfg.Obs,
	}
	if s.cfg.FleetSharedCache {
		cfg.SharedCache = predcache.NewShared(predcache.Options{}, 0)
	}
	return fleet.Run(cfg, src)
}

// warmFleetApps measures the stream pool's reference targets up front so
// the fleet runs never hit a cold target cache mid-dispatch.
func (s *Suite) warmFleetApps() error {
	w := workload.Workload{Name: "fleet-pool"}
	for _, name := range fleetPool() {
		m, err := apps.ByName(name)
		if err != nil {
			return err
		}
		w.Apps = append(w.Apps, m)
	}
	return s.targets.Warm([]workload.Workload{w}, s.cfg.Parallel)
}

// DynFleetTable crosses the three fleet scenarios with the dispatch
// disciplines and the Linux/SYNPA placement policies: the two-level
// scheduler's evaluation grid. Every cell is one fleet run; rows report
// the streaming-aggregated response metrics and the dispatch imbalance.
func (s *Suite) DynFleetTable() (*Table, error) {
	model, _, err := s.Model()
	if err != nil {
		return nil, err
	}
	if err := s.warmFleetApps(); err != nil {
		return nil, err
	}
	scenarios := FleetScenarios(s.cfg.Seed, s.cfg.Machine.QuantumCycles)
	policies := []PolicyFactory{
		LinuxFactory(),
		SYNPAFactory(model, core.PolicyOptions{}),
	}

	type job struct {
		sc       FleetScenario
		dispatch string
		pol      PolicyFactory
	}
	var jobs []job
	for _, sc := range scenarios {
		for _, dispatch := range fleet.Dispatchers() {
			for _, pol := range policies {
				jobs = append(jobs, job{sc, dispatch, pol})
			}
		}
	}
	reps := make([]*fleet.Report, len(jobs))
	if err := pool.Run(len(jobs), s.cfg.Parallel, func(i int) error {
		var err error
		reps[i], err = s.runFleet(jobs[i].sc, jobs[i].dispatch, jobs[i].pol, model)
		return err
	}); err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Fleet scenarios: dispatch disciplines x placement policies (dynfleet)",
		Header: []string{"Scenario", "Dispatch", "Policy", "Jobs", "Done", "Deferred",
			"MeanResp(Kcyc)", "P95(Kcyc)", "ANTT", "STP", "Imb"},
		Notes: []string{
			"6 machines per fleet; STP is fleet-wide completed isolated work per cycle (machine STP x6 at full health)",
			"P95 from the streaming quantile sketch (no retained samples); Imb = max machine's job share over the even split",
			"fleet-imb mixes 10x job sizes; fleet-hot arrives in 12-job bursts - dispatch quality shows in their tails",
		},
	}
	for i, j := range jobs {
		r := reps[i]
		t.AddRow(j.sc.Name, j.dispatch, j.pol.Label,
			fmt.Sprint(r.Jobs), fmt.Sprint(r.Completed), fmt.Sprint(r.Deferred),
			fmt.Sprintf("%.1f", r.MeanResponseCycles/1000), fmt.Sprintf("%.1f", r.P95ResponseCycles/1000),
			f3(r.ANTT), f3(r.STP), f3(r.Imbalance))
	}
	return t, nil
}

// FleetScaleOptions size the dynfleet-scale run.
type FleetScaleOptions struct {
	// Machines is the cluster size (default 500).
	Machines int
	// Jobs is the stream length (default 1,000,000).
	Jobs int
}

// DynFleetScale streams a Poisson trace of tiny jobs into a large cluster
// under least-loaded dispatch and Linux placement — the memory-scaling
// run: job count exceeds machine count by orders of magnitude, so any
// per-job retention would dominate the peak heap. Jobs are sized to two scheduling quanta of isolated
// work and the arrival rate to ~65% effective cluster utilisation.
func (s *Suite) DynFleetScale(opt FleetScaleOptions) (*Table, error) {
	machines := opt.Machines
	if machines <= 0 {
		machines = 500
	}
	jobs := opt.Jobs
	if jobs <= 0 {
		jobs = 1_000_000
	}
	if err := s.warmFleetApps(); err != nil {
		return nil, err
	}
	// A job's isolated time is work x the reference interval (target and
	// IPC both come from that interval, so IPC cancels). Jobs must span
	// multiple scheduling quanta for the offered-load calculus to hold: a
	// sub-quantum job still occupies its hardware thread to the slice
	// boundary, which would quantum-bound the service time and saturate
	// the cluster regardless of the computed gap. Two quanta of isolated
	// work keeps jobs tiny relative to the stream (the memory claim's
	// jobs >> machines regime) while making iso the dominant service term.
	// The offered load is half the cluster's isolated-speed thread
	// capacity: SMT sharing plus slice-boundary rounding stretch a job's
	// thread-occupancy to ~1.3x iso (measured), so this runs the cluster
	// at ~65% effective utilisation — loaded enough to queue, stable
	// enough that in-flight state (and with it the heap) stays bounded as
	// the stream length grows.
	work := 2 / float64(s.cfg.RefQuanta)
	threads := machines * s.cfg.Machine.Cores * s.cfg.Machine.ThreadsPerCore()
	isoCycles := 2 * float64(s.cfg.Machine.QuantumCycles)
	gap := isoCycles / (0.5 * float64(threads))
	src := fleet.NewTraceSource(s.targets,
		workload.PoissonStream("fleet-scale", s.cfg.Seed+23, fleetPool(), jobs, gap, work), 0)
	rep, err := fleet.Run(fleet.Config{
		Machines:  machines,
		Machine:   s.cfg.Machine,
		NewPolicy: func(int) machine.Policy { return LinuxFactory().New() },
		Dispatch:  fleet.DispatchLeastLoaded,
		Admission: s.cfg.Admission,
		Seed:      s.cfg.Seed,
		MaxCycles: uint64(s.cfg.MaxQuanta) * s.cfg.Machine.QuantumCycles,
		Workers:   s.cfg.Machine.Workers,
		Obs:       s.cfg.Obs,
	}, src)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Fleet scale: streaming dispatch and O(machines) aggregation (dynfleet-scale)",
		Header: []string{"Machines", "Workers", "Jobs", "Done", "Unfinished", "Cycles(M)",
			"MeanResp(Kcyc)", "P95(Kcyc)", "ANTT", "STP", "MeanLive", "Imb"},
		Notes: []string{
			"least-loaded dispatch, Linux placement, two-quanta jobs at ~65% effective utilisation",
			"memory stays O(machines + classes + in-flight): perfbench fleet-churn's peak_heap_mb bounds it against the parent commit",
		},
	}
	t.AddRow(fmt.Sprint(rep.Machines), fmt.Sprint(rep.Workers),
		fmt.Sprint(rep.Jobs), fmt.Sprint(rep.Completed), fmt.Sprint(rep.Unfinished),
		fmt.Sprintf("%.1f", float64(rep.Cycles)/1e6),
		fmt.Sprintf("%.1f", rep.MeanResponseCycles/1000), fmt.Sprintf("%.1f", rep.P95ResponseCycles/1000),
		f3(rep.ANTT), f3(rep.STP), f3(rep.MeanLive), f3(rep.Imbalance))
	return t, nil
}
