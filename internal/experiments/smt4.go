// SMT-level experiments: the scenarios the ROADMAP's SMT4 item opens up.
// The ThunderX2 hardware supports SMT4 but the paper runs it as SMT2
// (§V-A); these tables run the same applications on an equal
// hardware-thread budget configured both ways — 4 cores × SMT2 against
// 2 cores × SMT4 — under Linux, Random and SYNPA. At SMT4 the SYNPA policy
// solves the follow-up papers' thread-grouping problem (internal/grouping)
// instead of the pairwise blossom matching.
package experiments

import (
	"fmt"
	"time"

	"synpa/internal/apps"
	"synpa/internal/core"
	"synpa/internal/grouping"
	"synpa/internal/machine"
	"synpa/internal/metrics"
	"synpa/internal/pool"
	"synpa/internal/sched"
	"synpa/internal/workload"
	"synpa/internal/xrand"
)

// smt4Apps is the 8-application mixed workload of the SMT-level comparison
// (the dynamic scenarios' mixed pool: backend-, frontend- and
// phase-flipping behaviour).
var smt4Apps = []string{"mcf", "leela_r", "lbm_r", "gobmk", "cactuBSSN_r", "povray_r", "milc", "perlbench"}

// SMT4Table runs the 8-application mixed workload on equal hardware-thread
// budgets at SMT2 (4 cores × 2 threads) and SMT4 (2 cores × 4 threads)
// under the Linux, Random and SYNPA policies, reporting the closed-system
// §VI metrics. Deterministic: seeds derive from the suite seed and the
// (configuration, policy) labels.
func (s *Suite) SMT4Table() (*Table, error) {
	model, _, err := s.Model()
	if err != nil {
		return nil, err
	}
	models := make([]*apps.Model, len(smt4Apps))
	targets := make([]uint64, len(smt4Apps))
	isoIPC := make([]float64, len(smt4Apps))
	for i, name := range smt4Apps {
		m, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		models[i] = m
		if targets[i], err = s.targets.Target(m); err != nil {
			return nil, err
		}
		if isoIPC[i], err = s.targets.IsolatedIPC(m); err != nil {
			return nil, err
		}
	}

	configs := []struct {
		label        string
		cores, level int
	}{
		{"4xSMT2", 4, 2},
		{"2xSMT4", 2, 4},
	}
	policies := []PolicyFactory{
		LinuxFactory(),
		{Label: "Random", New: func() machine.Policy { return sched.NewRandom(s.cfg.Seed) }},
		SYNPAFactory(model, core.PolicyOptions{}),
	}

	type job struct {
		cfgIdx, polIdx int
	}
	type outcome struct {
		tt       uint64
		antt     float64
		stp      float64
		fairness float64
		ipcGeo   float64
	}
	var jobs []job
	for ci := range configs {
		for pi := range policies {
			jobs = append(jobs, job{ci, pi})
		}
	}
	outs := make([]outcome, len(jobs))
	if err := pool.Run(len(jobs), s.cfg.Parallel, func(i int) error {
		j := jobs[i]
		cc := configs[j.cfgIdx]
		cfg := s.machineConfig()
		cfg.Cores = cc.cores
		cfg.Core.SMTLevel = cc.level
		m, err := machine.New(cfg)
		if err != nil {
			return err
		}
		factory := policies[j.polIdx]
		res, err := m.Run(models, targets, factory.New(), machine.RunnerOptions{
			Seed:      s.cfg.Seed + workload.Hash(cc.label+"/"+factory.Label),
			MaxQuanta: s.cfg.MaxQuanta,
		})
		if err != nil {
			return err
		}
		if !res.AllCompleted {
			return fmt.Errorf("experiments: smt4 %s under %s did not complete in %d quanta",
				cc.label, factory.Label, s.cfg.MaxQuanta)
		}
		tt, err := metrics.TurnaroundCycles(res)
		if err != nil {
			return err
		}
		speedups, err := metrics.IndividualSpeedups(res, isoIPC)
		if err != nil {
			return err
		}
		fairness, err := metrics.Fairness(speedups)
		if err != nil {
			return err
		}
		antt, err := metrics.ANTT(speedups)
		if err != nil {
			return err
		}
		ipcGeo, err := metrics.GeomeanIPC(res)
		if err != nil {
			return err
		}
		outs[i] = outcome{tt: tt, antt: antt, stp: metrics.STP(speedups), fairness: fairness, ipcGeo: ipcGeo}
		return nil
	}); err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "SMT level: 8 apps on equal hardware threads, 4xSMT2 vs 2xSMT4",
		Header: []string{"Config", "Policy", "TT (Kcyc)", "ANTT", "STP", "Fairness", "IPC geomean"},
		Notes: []string{
			"equal hardware-thread budget (8); SMT4 shares each core's dispatch/queues 4 ways",
			"at SMT4 SYNPA solves the grouping problem (internal/grouping) instead of pairwise matching",
		},
	}
	for i, j := range jobs {
		o := outs[i]
		t.AddRow(configs[j.cfgIdx].label, policies[j.polIdx].Label,
			fmt.Sprintf("%.1f", float64(o.tt)/1000), f3(o.antt), f3(o.stp), f3(o.fairness), f4(o.ipcGeo))
	}
	return t, nil
}

// OverheadGrouping times the grouping solvers against each other — the
// SMT4 analogue of OverheadMatching's blossom-vs-enumeration comparison.
// The exact solver (the partition search, which leaves near-ties to the
// subset DP) gives the optimum; the greedy + local-search solver is the
// path beyond DefaultMaxExactN, and the table reports how close its
// partitions stay to the optimum (cost ratio) as the live set grows.
func (s *Suite) OverheadGrouping() (*Table, error) {
	t := &Table{
		Title:  "Overhead (grouping, SMT4): exact partition search (subset DP on ties) vs greedy+local-search",
		Header: []string{"Apps", "Cores", "Search ns/op", "Greedy ns/op", "Search/Greedy", "Cost ratio"},
		Notes: []string{
			"cost ratio = greedy partition cost / exact optimum (1.000 = optimal)",
			"the exact solver runs a depth-first partition search first; the subset DP answers only when the search's optimum is within a rounding margin of a tie",
			"the search's time grows with the number of set partitions it cannot prune; greedy stays polynomial",
		},
	}
	rng := xrand.New(7)
	for _, n := range []int{8, 12, 16} {
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := 2 + rng.Float64()*2
				w[i][j], w[j][i] = v, v
			}
		}
		cores := n / 4 // scarce cores: groups beyond pairs are forced
		timeIt := func(iters int, f func() (*grouping.Result, error)) (float64, *grouping.Result, error) {
			var res *grouping.Result
			var err error
			start := time.Now()
			for it := 0; it < iters; it++ {
				if res, err = f(); err != nil {
					return 0, nil, err
				}
			}
			return float64(time.Since(start).Nanoseconds()) / float64(iters), res, nil
		}
		exNs, exRes, err := timeIt(5, func() (*grouping.Result, error) {
			return grouping.Partition(w, cores, 4, grouping.Options{Solver: grouping.SolverExact})
		})
		if err != nil {
			return nil, err
		}
		grNs, grRes, err := timeIt(50, func() (*grouping.Result, error) {
			return grouping.Partition(w, cores, 4, grouping.Options{Solver: grouping.SolverGreedy})
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(cores),
			fmt.Sprintf("%.0f", exNs), fmt.Sprintf("%.0f", grNs),
			fmt.Sprintf("%.1fx", exNs/grNs), f3(grRes.Cost/exRes.Cost))
	}
	return t, nil
}
