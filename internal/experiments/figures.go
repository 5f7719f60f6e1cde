package experiments

import (
	"fmt"
	"sort"

	"synpa/internal/apps"
	"synpa/internal/characterize"
	"synpa/internal/machine"
	"synpa/internal/metrics"
	"synpa/internal/pmu"
	"synpa/internal/pool"
	"synpa/internal/stats"
	"synpa/internal/workload"
)

// isoProfile caches one application's isolated characterization.
type isoProfile struct {
	agg       pmu.Counters
	breakdown characterize.Breakdown
}

// isolatedProfiles characterizes all 28 applications in isolation (the data
// behind Fig. 4 and Table III), once, fanning the independent isolated runs
// out over CPUs.
func (s *Suite) isolatedProfiles() (map[string]isoProfile, error) {
	s.isoOnce.Do(func() {
		catalog := apps.Catalog()
		profiles := make([]isoProfile, len(catalog))
		s.isoErr = pool.Run(len(catalog), s.cfg.Parallel, func(i int) error {
			m := catalog[i]
			runs, err := machine.RunPinned([]*apps.Model{m}, []uint64{s.cfg.Seed ^ workload.Hash(m.Name)}, s.cfg.RefQuanta, s.cfg.Machine)
			if err != nil {
				return err
			}
			var agg pmu.Counters
			for _, smp := range runs[0] {
				agg = agg.Add(smp)
			}
			profiles[i] = isoProfile{
				agg:       agg,
				breakdown: characterize.FromCounters(agg, s.cfg.Machine.Core.DispatchWidth),
			}
			return nil
		})
		if s.isoErr != nil {
			return
		}
		s.iso = make(map[string]isoProfile, len(catalog))
		for i, m := range catalog {
			s.iso[m.Name] = profiles[i]
		}
	})
	return s.iso, s.isoErr
}

// TableI lists the four hardware events of paper Table I.
func (s *Suite) TableI() (*Table, error) {
	t := &Table{
		Title:  "Table I: hardware events gathered in the ARM processor",
		Header: []string{"Counter name", "Explanation"},
	}
	t.AddRow("CPU_CYCLES", "Cycles")
	t.AddRow("INST_SPEC", "Operation (speculatively) executed")
	t.AddRow("STALL_FRONTEND", "Cycles on which no operation is dispatched because there is no operation in the queue")
	t.AddRow("STALL_BACKEND", "Cycles on which no operation is dispatched due to backend resources being unavailable")
	t.Notes = append(t.Notes, "emulated by internal/pmu with exact zero-dispatch stall semantics")
	return t, nil
}

// TableII reports the simulated machine configuration against paper
// Table II.
func (s *Suite) TableII() (*Table, error) {
	c := s.cfg.Machine.Core
	t := &Table{
		Title:  "Table II: experimental processor configuration",
		Header: []string{"Parameter", "Simulated", "Paper (ThunderX2 CN9975)"},
	}
	t.AddRow("SMT threads/core", fmt.Sprint(2), "2 (SMT4 configured as SMT2)")
	t.AddRow("Dispatch width", fmt.Sprint(c.DispatchWidth), "4")
	t.AddRow("ROB size", fmt.Sprint(c.ROBSize), "128 entries")
	t.AddRow("IQ size", fmt.Sprint(c.IQSize), "60 entries")
	t.AddRow("Load/Store buffer", fmt.Sprintf("%d/%d", c.LDQSize, c.STQSize), "64/36 entries")
	t.AddRow("Cores used", fmt.Sprint(s.cfg.Machine.Cores), "4 of 28 (8-app workloads)")
	t.AddRow("Quantum", fmt.Sprintf("%d cycles", s.cfg.Machine.QuantumCycles), "100 ms")
	return t, nil
}

// Fig2 shows the three-step characterization of one application's isolated
// execution (paper Fig. 2).
func (s *Suite) Fig2(appName string) (*Table, error) {
	iso, err := s.isolatedProfiles()
	if err != nil {
		return nil, err
	}
	p, ok := iso[appName]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown application %q", appName)
	}
	b := p.breakdown
	total := float64(b.Cycles)
	t := &Table{
		Title:  fmt.Sprintf("Fig 2: three-step cycle characterization at dispatch (%s, isolated)", appName),
		Header: []string{"Step", "Category", "Cycles", "% of cycles"},
	}
	t.AddRow("1 (measured)", "Frontend stalls (FEs)", fmt.Sprint(b.FEStalls), pct(float64(b.FEStalls)/total))
	t.AddRow("1 (measured)", "Backend stalls (BEs)", fmt.Sprint(b.BEStalls), pct(float64(b.BEStalls)/total))
	t.AddRow("1 (measured)", "Dispatch cycles (Dc)", fmt.Sprint(b.DispCycle), pct(float64(b.DispCycle)/total))
	t.AddRow("2 (estimated)", "Full-dispatch cycles (F-Dc)", fmt.Sprintf("%.0f", b.FullDispatch), pct(b.FullDispatch/total))
	t.AddRow("2 (estimated)", "Revealed stalls (Reveals)", fmt.Sprintf("%.0f", b.Revealed), pct(b.Revealed/total))
	t.AddRow("3 (final)", "Full-dispatch", "", pct(b.FD))
	t.AddRow("3 (final)", "Frontend stalls", "", pct(b.FE))
	t.AddRow("3 (final)", "Backend stalls (incl. Reveals)", "", pct(b.BE))
	t.Notes = append(t.Notes,
		"Step 1 sums below 100% because partially-filled dispatch cycles hide horizontal waste",
		"Step 3 categories always sum to 100%")
	return t, nil
}

// Fig4 reports the isolated-execution characterization of all 28
// applications (paper Fig. 4).
func (s *Suite) Fig4() (*Table, error) {
	iso, err := s.isolatedProfiles()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 4: characterization of the applications in isolated execution",
		Header: []string{"Application", "Full-dispatch", "Frontend stalls", "Backend stalls", "IPC"},
	}
	for _, name := range sortedAppNames(apps.Catalog()) {
		b := iso[name].breakdown
		ipc := 0.0
		if b.Cycles > 0 {
			ipc = float64(b.Retired) / float64(b.Cycles)
		}
		t.AddRow(name, pct(b.FD), pct(b.FE), pct(b.BE), f3(ipc))
	}
	return t, nil
}

// TableIII groups the applications by their dominant dispatch-stall
// category (paper Table III) and cross-checks the catalogue labels.
func (s *Suite) TableIII() (*Table, error) {
	iso, err := s.isolatedProfiles()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table III: benchmark groups (backend stalls > 65%, frontend stalls > 35%)",
		Header: []string{"Group", "Application", "Backend stalls", "Frontend stalls", "Matches paper"},
	}
	for _, g := range []apps.Group{apps.GroupBackend, apps.GroupFrontend, apps.GroupOther} {
		for _, m := range apps.ByGroup(g) {
			b := iso[m.Name].breakdown
			match := "yes"
			if b.Group() != m.Group.String() {
				match = "NO"
			}
			t.AddRow(g.String(), m.Name, pct(b.BE), pct(b.FE), match)
		}
	}
	return t, nil
}

// TableIV reports the trained model coefficients and MSE per category
// (paper Table IV and §VI-A) with the paper's values alongside.
func (s *Suite) TableIV() (*Table, error) {
	model, rep, err := s.Model()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table IV: model coefficients for the three categories",
		Header: []string{"Category", "alpha", "beta", "gamma", "rho", "MSE", "R^2"},
	}
	for k, name := range model.Categories {
		c := model.Coef[k]
		t.AddRow(name, f4(c.Alpha), f4(c.Beta), f4(c.Gamma), f4(c.Rho), f4(rep.MSE[k]), f3(rep.R2[k]))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("trained on %d apps, %d SMT pairs, %d aligned quantum samples", rep.Apps, rep.Pairs, rep.Samples),
		"paper (ThunderX2): FD a=0.0072 b=0.9060 g=0.0044 r=0.0314 MSE=0.0021; FE a=0.2376 b=1.4111 MSE=0.0703; BE a=0.2069 b=0.3431 g=1.4391 MSE=0.1583",
		"expected shape: MSE(FD) << MSE(FE) < MSE(BE); BE most co-runner-sensitive; FE self-driven")
	return t, nil
}

// groupOrder fixes the presentation order of workloads: be0-4, fe0-4, fb0-9.
func (s *Suite) orderedWorkloads() []workload.Workload {
	ws := append([]workload.Workload(nil), s.workloads...)
	sort.SliceStable(ws, func(i, j int) bool {
		if ws[i].Kind != ws[j].Kind {
			return ws[i].Kind < ws[j].Kind
		}
		return ws[i].Name < ws[j].Name
	})
	return ws
}

// ttSpeedup computes the TT speedup of SYNPA over Linux for one workload,
// aggregating repetitions with the paper's outlier-discarding mean.
func (s *Suite) ttSpeedup(w workload.Workload) (float64, error) {
	linux, synpa, err := s.policies()
	if err != nil {
		return 0, err
	}
	var ttL, ttS []float64
	for rep := 0; rep < s.cfg.Reps; rep++ {
		rl, err := s.Run(w, linux, rep)
		if err != nil {
			return 0, err
		}
		rs, err := s.Run(w, synpa, rep)
		if err != nil {
			return 0, err
		}
		tl, err := metrics.TurnaroundCycles(rl)
		if err != nil {
			return 0, err
		}
		ts, err := metrics.TurnaroundCycles(rs)
		if err != nil {
			return 0, err
		}
		ttL = append(ttL, float64(tl))
		ttS = append(ttS, float64(ts))
	}
	ml, _, _ := stats.RobustMean(ttL, 0.05, 3)
	ms, _, _ := stats.RobustMean(ttS, 0.05, 3)
	return speedup(ml, ms), nil
}

// Fig5 reports the turnaround-time speedup of SYNPA over Linux for the
// twenty workloads plus per-group averages (paper Fig. 5).
func (s *Suite) Fig5() (*Table, error) {
	if err := s.runAllPairs(); err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 5: speedup of the turnaround time over Linux",
		Header: []string{"Workload", "Kind", "TT speedup"},
	}
	groupVals := map[workload.Kind][]float64{}
	for _, w := range s.orderedWorkloads() {
		sp, err := s.ttSpeedup(w)
		if err != nil {
			return nil, err
		}
		groupVals[w.Kind] = append(groupVals[w.Kind], sp)
		t.AddRow(w.Name, w.Kind.String(), f3(sp))
	}
	for _, k := range []workload.Kind{workload.Backend, workload.Frontend, workload.Mixed} {
		t.AddRow("avg-"+k.String(), k.String(), f3(stats.Mean(groupVals[k])))
	}
	t.Notes = append(t.Notes,
		"paper shape: mixed avg ~1.36 (up to 1.55 on fb2) > backend avg ~1.18 > frontend avg ~1.08",
		fmt.Sprintf("aggregated over %d repetition(s) with <5%% CV outlier discard", s.cfg.Reps))
	return t, nil
}

// appAggregateUntilCompletion sums an application's per-quantum samples up
// to (and including) its completion quantum.
func appAggregateUntilCompletion(res *machine.Result, app int) pmu.Counters {
	var agg pmu.Counters
	lastQ := res.Apps[app].CompletedAtQuantum
	if lastQ < 0 || lastQ >= len(res.Samples) {
		lastQ = len(res.Samples) - 1
	}
	for q := 0; q <= lastQ; q++ {
		agg = agg.Add(res.Samples[q][app])
	}
	return agg
}

// Fig6 reports the per-application category characterization of a workload
// under Linux and SYNPA (paper Fig. 6, shown for be1, fe2 and fb2).
func (s *Suite) Fig6(workloadName string) (*Table, error) {
	w, err := workload.ByName(s.cfg.Seed, workloadName)
	if err != nil {
		return nil, err
	}
	linux, synpa, err := s.policies()
	if err != nil {
		return nil, err
	}
	rl, err := s.Run(w, linux, 0)
	if err != nil {
		return nil, err
	}
	rs, err := s.Run(w, synpa, 0)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Fig 6: characterization of the 8 applications of %s (left Linux, right SYNPA)", workloadName),
		Header: []string{"App", "Name",
			"L:FD", "L:FE", "L:BE", "L:TT(norm)",
			"S:FD", "S:FE", "S:BE", "S:TT(norm)"},
	}
	width := s.cfg.Machine.Core.DispatchWidth
	ttL, _ := rl.TurnaroundCycles()
	ttS, _ := rs.TurnaroundCycles()
	for i := range w.Apps {
		bl := characterize.FromCounters(appAggregateUntilCompletion(rl, i), width)
		bs := characterize.FromCounters(appAggregateUntilCompletion(rs, i), width)
		t.AddRow(fmt.Sprintf("%02d", i), w.Apps[i].Name,
			pct(bl.FD), pct(bl.FE), pct(bl.BE), f3(float64(rl.Apps[i].CompletedAtCycle)/float64(ttL)),
			pct(bs.FD), pct(bs.FE), pct(bs.BE), f3(float64(rs.Apps[i].CompletedAtCycle)/float64(ttS)))
	}
	t.Notes = append(t.Notes, "TT(norm): completion time normalized to the slowest application of the workload")
	return t, nil
}

// TableV reports, for fb2 under SYNPA, the percentage of quanta each
// application spends paired with each co-runner, split by the application's
// dominant behaviour in the quantum (top number: frontend-behaving; bottom:
// backend-behaving), plus the synergistic "diff. group" percentages (paper
// Table V).
func (s *Suite) TableV() (*Table, error) {
	w, err := workload.ByName(s.cfg.Seed, "fb2")
	if err != nil {
		return nil, err
	}
	_, synpa, err := s.policies()
	if err != nil {
		return nil, err
	}
	res, err := s.Run(w, synpa, 0)
	if err != nil {
		return nil, err
	}
	n := len(w.Apps)
	width := s.cfg.Machine.Core.DispatchWidth

	// counts[i][j][b]: quanta app i was paired with app j while i's
	// behaviour was frontend (b=0) or backend (b=1).
	counts := make([][][2]int, n)
	for i := range counts {
		counts[i] = make([][2]int, n)
	}
	quanta := len(res.Placements)
	if len(res.Samples) < quanta {
		quanta = len(res.Samples)
	}
	var mates []int
	for q := 0; q < quanta; q++ {
		place := res.Placements[q]
		mates = place.CoMates(mates)
		for i := 0; i < n; i++ {
			j := mates[i]
			if j < 0 {
				continue
			}
			b := characterize.FromCounters(res.Samples[q][i], width)
			if b.DominantIsBackend() {
				counts[i][j][1]++
			} else {
				counts[i][j][0]++
			}
		}
	}

	header := []string{"App", "Behaviour"}
	for j := 0; j < n; j++ {
		header = append(header, fmt.Sprintf("%02d:%s", j, w.Apps[j].Name))
	}
	header = append(header, "diff. group")
	t := &Table{
		Title:  "Table V: percentage of pairing quanta in fb2 with SYNPA (top: app behaves frontend; bottom: backend)",
		Header: header,
	}
	for i := 0; i < n; i++ {
		var feTotal, beTotal, feSyn, beSyn int
		feRow := []string{fmt.Sprintf("%02d:%s", i, w.Apps[i].Name), "frontend"}
		beRow := []string{"", "backend"}
		for j := 0; j < n; j++ {
			fe := counts[i][j][0]
			be := counts[i][j][1]
			feTotal += fe
			beTotal += be
			// Synergistic: FE behaviour paired with a backend-group
			// co-runner, or BE behaviour with a frontend-group one.
			if w.Apps[j].Group == apps.GroupBackend {
				feSyn += fe
			}
			if w.Apps[j].Group == apps.GroupFrontend {
				beSyn += be
			}
			feRow = append(feRow, pct(float64(fe)/float64(quanta)))
			beRow = append(beRow, pct(float64(be)/float64(quanta)))
		}
		feRow = append(feRow, pctOf(feSyn, feTotal))
		beRow = append(beRow, pctOf(beSyn, beTotal))
		t.Rows = append(t.Rows, feRow, beRow)
	}
	t.Notes = append(t.Notes,
		"diff. group: fraction of an app's FE-behaving (resp. BE-behaving) quanta spent with a backend-bound (resp. frontend-bound) co-runner — the paper's green cells")
	return t, nil
}

func pctOf(a, b int) string {
	if b == 0 {
		return "-"
	}
	return pct(float64(a) / float64(b))
}

// Fig7 reports the dynamic per-quantum characterization of the two leela_r
// instances of fb2 (apps 04 and 05) under Linux and SYNPA (paper Fig. 7),
// sampled to a readable number of rows, plus per-instance summaries.
func (s *Suite) Fig7() (*Table, error) {
	w, err := workload.ByName(s.cfg.Seed, "fb2")
	if err != nil {
		return nil, err
	}
	linux, synpa, err := s.policies()
	if err != nil {
		return nil, err
	}
	width := s.cfg.Machine.Core.DispatchWidth
	t := &Table{
		Title:  "Fig 7: dynamic characterization of the two leela_r instances of fb2",
		Header: []string{"Policy", "App", "Quantum", "FD", "FE", "BE", "Co-runner", "Co dominant"},
	}
	for _, pol := range []PolicyFactory{linux, synpa} {
		res, err := s.Run(w, pol, 0)
		if err != nil {
			return nil, err
		}
		for _, app := range []int{4, 5} {
			lastQ := res.Apps[app].CompletedAtQuantum
			if lastQ < 0 {
				lastQ = len(res.Samples) - 1
			}
			step := lastQ/8 + 1
			for q := 0; q <= lastQ; q += step {
				b := characterize.FromCounters(res.Samples[q][app], width)
				co := res.Placements[q].CoMate(app)
				coName, coDom := "-", "-"
				if co >= 0 {
					coName = fmt.Sprintf("%02d:%s", co, w.Apps[co].Name)
					cb := characterize.FromCounters(res.Samples[q][co], width)
					if cb.DominantIsBackend() {
						coDom = "backend"
					} else {
						coDom = "frontend"
					}
				}
				t.AddRow(pol.Label, fmt.Sprintf("leela_r(%02d)", app), fmt.Sprint(q),
					pct(b.FD), pct(b.FE), pct(b.BE), coName, coDom)
			}
			agg := characterize.FromCounters(appAggregateUntilCompletion(res, app), width)
			t.AddRow(pol.Label, fmt.Sprintf("leela_r(%02d)", app), "SUMMARY",
				pct(agg.FD), pct(agg.FE), pct(agg.BE),
				fmt.Sprintf("TT=%d quanta", res.Apps[app].CompletedAtQuantum+1), "")
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: under SYNPA both instances behave alike (higher FD, ~1/3 lower BE); under Linux one instance is ~15% slower than the other")
	return t, nil
}

// workloadSpeedupsAndFairness computes per-rep fairness and IPC for one
// workload under one policy.
func (s *Suite) fairnessAndIPC(w workload.Workload, policy PolicyFactory) (fair, ipc float64, err error) {
	isoIPC, err := s.targets.IsolatedIPCs(w)
	if err != nil {
		return 0, 0, err
	}
	var fairs, ipcs []float64
	for rep := 0; rep < s.cfg.Reps; rep++ {
		res, err := s.Run(w, policy, rep)
		if err != nil {
			return 0, 0, err
		}
		sp, err := metrics.IndividualSpeedups(res, isoIPC)
		if err != nil {
			return 0, 0, err
		}
		fair, err := metrics.Fairness(sp)
		if err != nil {
			return 0, 0, err
		}
		fairs = append(fairs, fair)
		g, err := metrics.GeomeanIPC(res)
		if err != nil {
			return 0, 0, err
		}
		ipcs = append(ipcs, g)
	}
	mf, _, _ := stats.RobustMean(fairs, 0.05, 2)
	mi, _, _ := stats.RobustMean(ipcs, 0.05, 2)
	return mf, mi, nil
}

// Fig8 compares the fairness of Linux and SYNPA per workload (paper Fig. 8).
func (s *Suite) Fig8() (*Table, error) {
	if err := s.runAllPairs(); err != nil {
		return nil, err
	}
	linux, synpa, err := s.policies()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 8: fairness comparison of Linux and SYNPA",
		Header: []string{"Workload", "Kind", "Linux", "SYNPA", "SYNPA/Linux"},
	}
	groupL := map[workload.Kind][]float64{}
	groupS := map[workload.Kind][]float64{}
	for _, w := range s.orderedWorkloads() {
		fl, _, err := s.fairnessAndIPC(w, linux)
		if err != nil {
			return nil, err
		}
		fs, _, err := s.fairnessAndIPC(w, synpa)
		if err != nil {
			return nil, err
		}
		groupL[w.Kind] = append(groupL[w.Kind], fl)
		groupS[w.Kind] = append(groupS[w.Kind], fs)
		t.AddRow(w.Name, w.Kind.String(), f3(fl), f3(fs), f3(speedup(fs, fl)))
	}
	for _, k := range []workload.Kind{workload.Backend, workload.Frontend, workload.Mixed} {
		t.AddRow("avg-"+k.String(), k.String(),
			f3(stats.Mean(groupL[k])), f3(stats.Mean(groupS[k])),
			f3(speedup(stats.Mean(groupS[k]), stats.Mean(groupL[k]))))
	}
	t.Notes = append(t.Notes,
		"paper shape: SYNPA fairer everywhere; largest gains on mixed (up to ~48% on fb2, ~25% avg); frontend near parity with the highest absolute fairness")
	return t, nil
}

// Fig9 reports the IPC speedup (geometric mean over the workload's apps) of
// SYNPA over Linux (paper Fig. 9).
func (s *Suite) Fig9() (*Table, error) {
	if err := s.runAllPairs(); err != nil {
		return nil, err
	}
	linux, synpa, err := s.policies()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 9: speedup of IPC (geomean) over Linux",
		Header: []string{"Workload", "Kind", "IPC speedup"},
	}
	group := map[workload.Kind][]float64{}
	for _, w := range s.orderedWorkloads() {
		_, il, err := s.fairnessAndIPC(w, linux)
		if err != nil {
			return nil, err
		}
		_, is, err := s.fairnessAndIPC(w, synpa)
		if err != nil {
			return nil, err
		}
		sp := speedup(is, il)
		group[w.Kind] = append(group[w.Kind], sp)
		t.AddRow(w.Name, w.Kind.String(), f3(sp))
	}
	for _, k := range []workload.Kind{workload.Backend, workload.Frontend, workload.Mixed} {
		t.AddRow("avg-"+k.String(), k.String(), f3(stats.Mean(group[k])))
	}
	t.Notes = append(t.Notes,
		"paper shape: IPC gains much smaller than TT gains; mixed best (~1.022 avg), frontend ~1.008")
	return t, nil
}
