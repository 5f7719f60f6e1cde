// Open-system (dynamic) scenario experiments: the dyn0–dyn4 set exercises
// arrivals, departures, partial and odd occupancy, queueing under overload,
// and drain — everything the paper's closed 2k-apps-on-k-cores methodology
// cannot express. They are the evaluation harness for the follow-up
// question (Navarro et al., 2025): how do the policies behave when the
// machine is not permanently full?
package experiments

import (
	"fmt"

	"synpa/internal/admission"
	"synpa/internal/core"
	"synpa/internal/machine"
	"synpa/internal/pool"
	"synpa/internal/sched"
	"synpa/internal/workload"
)

// DynamicScenarios builds the dyn0–dyn4 open-system traces. Arrival times
// are expressed in machine quanta (quantumCycles per step) so the set
// scales with the configured quantum length.
//
//	dyn0  5 apps on 4 cores: odd occupancy, one mid-run arrival, one
//	      early departure — the smallest scenario with every dynamic
//	      ingredient (the acceptance scenario).
//	dyn1  light Poisson arrivals: the machine runs mostly half-empty.
//	dyn2  heavy Poisson arrivals: offered load exceeds the hardware
//	      threads, so admissions queue.
//	dyn3  burst then refill: a full batch, a drain phase, a second wave.
//	dyn4  staircase ramp-up and drain with growing job sizes.
func DynamicScenarios(seed uint64, quantumCycles uint64) []workload.Trace {
	q := func(n float64) uint64 { return uint64(n * float64(quantumCycles)) }
	mixed := []string{"mcf", "leela_r", "lbm_r", "gobmk", "cactuBSSN_r", "povray_r", "milc", "perlbench"}

	dyn0 := workload.Trace{Name: "dyn0", Entries: []workload.TraceEntry{
		{App: "mcf", ArriveAt: 0, Work: 1},
		{App: "leela_r", ArriveAt: 0, Work: 1},
		{App: "lbm_r", ArriveAt: 0, Work: 1},
		{App: "gobmk", ArriveAt: 0, Work: 0.3},     // departs early: occupancy drops mid-run
		{App: "povray_r", ArriveAt: q(3), Work: 1}, // arrives mid-run: 5 live apps, odd
	}}
	dyn1 := workload.PoissonTrace("dyn1", seed+1, mixed, 8, 2*float64(quantumCycles), 0.5)
	dyn2 := workload.PoissonTrace("dyn2", seed+2, mixed, 12, 0.5*float64(quantumCycles), 0.5)
	dyn3 := workload.Trace{Name: "dyn3"}
	for i := 0; i < 8; i++ {
		dyn3.Entries = append(dyn3.Entries,
			workload.TraceEntry{App: mixed[i%len(mixed)], ArriveAt: 0, Work: 0.4})
	}
	for i := 0; i < 4; i++ {
		dyn3.Entries = append(dyn3.Entries,
			workload.TraceEntry{App: mixed[(i+2)%len(mixed)], ArriveAt: q(10), Work: 0.4})
	}
	dyn4 := workload.Trace{Name: "dyn4"}
	for i := 0; i < 8; i++ {
		dyn4.Entries = append(dyn4.Entries, workload.TraceEntry{
			App:      mixed[i%len(mixed)],
			ArriveAt: q(0.5 * float64(i)),
			Work:     0.3 + 0.1*float64(i%4),
		})
	}
	return []workload.Trace{dyn0, dyn1, dyn2, dyn3, dyn4}
}

// dynSummary aggregates one open-system run for the table.
type dynSummary struct {
	apps, completed, deferred int
	meanRespK                 float64 // mean response time, kilocycles
	antt                      float64 // mean normalized response (completed apps)
	stp                       float64 // completed isolated-app work per cycle
	wstp                      float64 // weight-scaled STP (= stp on uniform weights)
	meanLive                  float64
	occupancy                 float64
	allCompleted              bool
	perClass                  []workload.ClassStats
}

// runDynamic executes one trace under one policy and summarises it. The
// trace-to-work conversion and the metric definitions live in the workload
// package (DynamicWork / SummarizeDynamic), shared with the public
// System.RunDynamic so both report identical numbers for the same trace.
// The admission discipline comes from the suite configuration (FIFO by
// default).
func (s *Suite) runDynamic(tr workload.Trace, factory PolicyFactory) (*dynSummary, error) {
	adm, err := admission.ByName(s.cfg.Admission)
	if err != nil {
		return nil, err
	}
	return s.runDynamicAdm(tr, factory, adm)
}

// runDynamicAdm executes one trace under one placement policy and one
// admission discipline.
func (s *Suite) runDynamicAdm(tr workload.Trace, factory PolicyFactory, adm admission.Policy) (*dynSummary, error) {
	work, isoCycles, err := s.targets.DynamicWork(tr)
	if err != nil {
		return nil, err
	}
	cfg := s.machineConfig()
	mach, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := mach.RunDynamic(work, factory.New(), machine.DynamicOptions{
		Seed:      s.cfg.Seed + workload.Hash(tr.Name),
		MaxCycles: uint64(s.cfg.MaxQuanta) * cfg.QuantumCycles,
		Admission: adm,
		Obs:       s.cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	stats := workload.SummarizeDynamic(res, isoCycles)
	return &dynSummary{
		apps:         len(res.Apps),
		completed:    stats.Completed,
		deferred:     res.Deferred,
		meanRespK:    stats.MeanResponseCycles / 1000,
		antt:         stats.ANTT,
		stp:          stats.STP,
		wstp:         stats.WeightedSTP,
		meanLive:     res.MeanLiveApps,
		occupancy:    res.MeanLiveApps / float64(cfg.HWThreads()),
		allCompleted: res.AllCompleted,
		perClass:     stats.PerClass,
	}, nil
}

// DynamicTable runs the dyn0–dyn4 scenarios under the Linux, Random and
// SYNPA policies and reports the open-system metrics: mean response time,
// ANTT (mean normalized response), STP (completed isolated-app work per
// cycle) and machine occupancy.
func (s *Suite) DynamicTable() (*Table, error) {
	model, _, err := s.Model()
	if err != nil {
		return nil, err
	}
	scenarios := DynamicScenarios(s.cfg.Seed, s.cfg.Machine.QuantumCycles)
	policies := []PolicyFactory{
		LinuxFactory(),
		{Label: "Random", New: func() machine.Policy { return sched.NewRandom(s.cfg.Seed) }},
		SYNPAFactory(model, core.PolicyOptions{}),
	}

	type job struct {
		tr  workload.Trace
		pol PolicyFactory
	}
	var jobs []job
	for _, tr := range scenarios {
		for _, pol := range policies {
			jobs = append(jobs, job{tr, pol})
		}
	}
	sums := make([]*dynSummary, len(jobs))
	if err := pool.Run(len(jobs), s.cfg.Parallel, func(i int) error {
		var err error
		sums[i], err = s.runDynamic(jobs[i].tr, jobs[i].pol)
		return err
	}); err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Dynamic scenarios: open-system response times (dyn0-dyn4)",
		Header: []string{"Scenario", "Policy", "Apps", "Done", "Deferred",
			"MeanResp(Kcyc)", "ANTT", "STP", "Occupancy"},
		Notes: []string{
			"ANTT = mean response / isolated time over completed apps (lower is better)",
			"STP = completed isolated-app work per cycle (higher is better)",
			"Occupancy = time-averaged live apps / hardware threads",
		},
	}
	for i, j := range jobs {
		sum := sums[i]
		t.AddRow(j.tr.Name, j.pol.Label,
			fmt.Sprint(sum.apps), fmt.Sprint(sum.completed), fmt.Sprint(sum.deferred),
			fmt.Sprintf("%.1f", sum.meanRespK), f3(sum.antt), f3(sum.stp), pct(sum.occupancy))
	}
	return t, nil
}
