package experiments

import (
	"fmt"
	"time"

	"synpa/internal/machine"

	"synpa/internal/apps"
	"synpa/internal/characterize"
	"synpa/internal/core"
	"synpa/internal/matching"
	"synpa/internal/metrics"
	"synpa/internal/sched"
	"synpa/internal/stats"
	"synpa/internal/train"
	"synpa/internal/workload"
	"synpa/internal/xrand"
)

// AblationTenCategory reproduces the §VI-A finding that the authors'
// preliminary ten-category model (backend split into its component stall
// causes) is *less* accurate overall than the final three-category model:
// "the sum of the error deviations with more components exceeds the errors
// of only considering the backend category as a single category".
func (s *Suite) AblationTenCategory() (*Table, error) {
	_, rep3, err := s.Model()
	if err != nil {
		return nil, err
	}
	opts := s.cfg.Train
	opts.Machine = s.cfg.Machine
	opts.Extract = core.TenCategoryFractions
	opts.Categories = core.TenCategories
	m10, rep10, err := train.Train(apps.TrainingSet(), opts)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "Ablation (§VI-A): three-category vs ten-category model accuracy",
		Header: []string{"Model", "Categories", "Equations/pair", "Total MSE", "Backend-side MSE"},
	}
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	// Backend-side error: the single BE category vs the sum of the seven
	// backend component categories.
	be3 := rep3.MSE[2]
	be10 := 0.0
	for k, name := range m10.Categories {
		if len(name) >= 3 && name[:3] == "BE:" {
			be10 += rep10.MSE[k]
		}
	}
	t.AddRow("three-category (final)", "3", "3", f4(sum(rep3.MSE)), f4(be3))
	t.AddRow("ten-category (preliminary)", "10", "10", f4(sum(rep10.MSE)), f4(be10))
	t.Notes = append(t.Notes,
		"paper finding: the summed backend-component errors exceed the single-category backend error, and the 10-equation model costs >3x more per pair estimate")
	return t, nil
}

// AblationRevealsSplit reproduces the §III-B Step 3 design study: assigning
// the revealed horizontal waste to the backend (the paper's choice) vs
// splitting it equally or proportionally between frontend and backend. The
// paper "opt[s] for the selected design choice as it is the one showing the
// most accurate regression model".
func (s *Suite) AblationRevealsSplit() (*Table, error) {
	t := &Table{
		Title:  "Ablation (§III-B Step 3): attribution of revealed stalls",
		Header: []string{"Rule", "MSE FD", "MSE FE", "MSE BE", "Total MSE"},
	}
	rules := []characterize.SplitRule{
		characterize.RevealsToBackend,
		characterize.RevealsEqual,
		characterize.RevealsProportional,
	}
	for _, rule := range rules {
		opts := s.cfg.Train
		opts.Machine = s.cfg.Machine
		opts.Extract = core.ThreeCategoryFractionsRule(rule)
		_, rep, err := train.Train(apps.TrainingSet(), opts)
		if err != nil {
			return nil, err
		}
		total := rep.MSE[0] + rep.MSE[1] + rep.MSE[2]
		t.AddRow(rule.String(), f4(rep.MSE[0]), f4(rep.MSE[1]), f4(rep.MSE[2]), f4(total))
	}
	t.Notes = append(t.Notes, "paper choice: reveals->backend (first row) gives the most accurate model")
	return t, nil
}

// AblationMatcher compares SYNPA's Blossom matcher with the greedy and
// brute-force alternatives on turnaround time over the mixed workloads
// (the pair-selection design choice of §IV-B Step 3).
func (s *Suite) AblationMatcher() (*Table, error) {
	model, _, err := s.Model()
	if err != nil {
		return nil, err
	}
	linux := LinuxFactory()
	t := &Table{
		Title:  "Ablation (§IV-B Step 3): pair-selection algorithm, TT speedup over Linux on mixed workloads",
		Header: []string{"Matcher", "Mean TT speedup", "Min", "Max"},
	}
	for _, matcher := range []core.Matcher{core.MatcherBlossom, core.MatcherGreedy, core.MatcherBruteForce} {
		policy := SYNPAFactory(model, core.PolicyOptions{
			Matcher: matcher,
			Name:    "SYNPA-" + matcher.String(),
		})
		var sps []float64
		for _, w := range s.workloads {
			if w.Kind != workload.Mixed {
				continue
			}
			rl, err := s.Run(w, linux, 0)
			if err != nil {
				return nil, err
			}
			rs, err := s.Run(w, policy, 0)
			if err != nil {
				return nil, err
			}
			tl, err := metrics.TurnaroundCycles(rl)
			if err != nil {
				return nil, err
			}
			ts, err := metrics.TurnaroundCycles(rs)
			if err != nil {
				return nil, err
			}
			sps = append(sps, float64(tl)/float64(ts))
		}
		mn, _ := stats.Min(sps)
		mx, _ := stats.Max(sps)
		t.AddRow(matcher.String(), f3(stats.Mean(sps)), f3(mn), f3(mx))
	}
	t.Notes = append(t.Notes, "blossom and brute force find the same optimum; greedy is the cheap suboptimal baseline")
	return t, nil
}

// AblationInversion quantifies the value of the model-inversion step
// (§IV-B Step 1): SYNPA with inversion vs a variant that feeds raw SMT
// fractions into the forward model.
func (s *Suite) AblationInversion() (*Table, error) {
	model, _, err := s.Model()
	if err != nil {
		return nil, err
	}
	linux := LinuxFactory()
	variants := []struct {
		label   string
		disable bool
	}{
		{"with inversion (SYNPA)", false},
		{"without inversion", true},
	}
	t := &Table{
		Title:  "Ablation (§IV-B Step 1): value of the model inversion, mixed workloads",
		Header: []string{"Variant", "Mean TT speedup over Linux"},
	}
	for _, v := range variants {
		policy := SYNPAFactory(model, core.PolicyOptions{
			DisableInversion: v.disable,
			Name:             "SYNPA-inv-" + fmt.Sprint(!v.disable),
		})
		var sps []float64
		for _, w := range s.workloads {
			if w.Kind != workload.Mixed {
				continue
			}
			rl, err := s.Run(w, linux, 0)
			if err != nil {
				return nil, err
			}
			rs, err := s.Run(w, policy, 0)
			if err != nil {
				return nil, err
			}
			tl, _ := metrics.TurnaroundCycles(rl)
			ts, _ := metrics.TurnaroundCycles(rs)
			sps = append(sps, float64(tl)/float64(ts))
		}
		t.AddRow(v.label, f3(stats.Mean(sps)))
	}
	return t, nil
}

// OverheadModelEquations reproduces the §II overhead claim: estimating all
// pair combinations with SYNPA's three equations is ~40 % cheaper than with
// the five-equation IBM-style model, and the ten-category model is costlier
// still. Times are measured for a full all-pairs estimation sweep over n
// applications, each arity's the fastest of several interleaved rounds.
func (s *Suite) OverheadModelEquations() (*Table, error) {
	t := &Table{
		Title:  "Overhead (§II): all-pairs estimation cost by model arity (n=8 apps)",
		Header: []string{"Model", "Equations", "ns/all-pairs", "Relative"},
	}
	const n = 8
	rng := xrand.New(1)
	mk := func(k int) (*core.Model, [][]float64) {
		m := &core.Model{Categories: make([]string, k), Coef: make([]core.Coefficients, k)}
		for i := 0; i < k; i++ {
			m.Categories[i] = fmt.Sprintf("c%d", i)
			m.Coef[i] = core.Coefficients{Alpha: 0.1, Beta: 0.9, Gamma: 0.3, Rho: 0.1}
		}
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = make([]float64, k)
			for j := range vecs[i] {
				vecs[i][j] = rng.Float64()
			}
		}
		return m, vecs
	}
	timeAllPairs := func(m *core.Model, vecs [][]float64) float64 {
		const iters = 5000
		sink := 0.0
		sweep := func(count int) {
			for it := 0; it < count; it++ {
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						sink += m.PairDegradation(vecs[i], vecs[j])
					}
				}
			}
		}
		sweep(iters / 4) // warm caches and branch predictors
		start := time.Now()
		sweep(iters)
		_ = sink
		return float64(time.Since(start).Nanoseconds()) / iters
	}
	// Each arity's cost is the minimum over interleaved rounds, so a burst
	// of host noise during one sweep cannot invert the ordering.
	const rounds = 7
	arities := []int{3, 5, 10}
	models := make([]*core.Model, len(arities))
	vecs := make([][][]float64, len(arities))
	for ai, k := range arities {
		models[ai], vecs[ai] = mk(k)
	}
	best := make([]float64, len(arities))
	for r := 0; r < rounds; r++ {
		for ai := range arities {
			if ns := timeAllPairs(models[ai], vecs[ai]); r == 0 || ns < best[ai] {
				best[ai] = ns
			}
		}
	}
	for ai, k := range arities {
		label := map[int]string{3: "SYNPA (3 categories)", 5: "IBM-style (5 equations)", 10: "preliminary (10 categories)"}[k]
		t.AddRow(label, fmt.Sprint(k), fmt.Sprintf("%.0f", best[ai]), fmt.Sprintf("%.2fx", best[ai]/best[0]))
	}
	t.Notes = append(t.Notes, "paper claim: 3 equations vs 5 equations -> ~40% lower estimation overhead")
	return t, nil
}

// OverheadMatching compares Blossom with exhaustive pairing enumeration as
// the machine grows — the combinatorial explosion the paper cites as the
// reason for using the Blossom algorithm (§IV-B Step 3).
func (s *Suite) OverheadMatching() (*Table, error) {
	t := &Table{
		Title:  "Overhead (§IV-B Step 3): pair-selection time, Blossom vs exhaustive enumeration",
		Header: []string{"Apps", "Blossom ns/op", "Brute force ns/op", "Brute/Blossom"},
	}
	rng := xrand.New(7)
	for _, n := range []int{8, 12, 16, 20} {
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
		timeIt := func(f func() error) (float64, error) {
			iters := 50
			start := time.Now()
			for it := 0; it < iters; it++ {
				if err := f(); err != nil {
					return 0, err
				}
			}
			return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
		}
		bl, err := timeIt(func() error { _, _, err := matching.MinWeightPerfectMatching(w); return err })
		if err != nil {
			return nil, err
		}
		bf, err := timeIt(func() error { _, _, err := matching.BruteForceMinWeightPerfect(w); return err })
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprintf("%.0f", bl), fmt.Sprintf("%.0f", bf), fmt.Sprintf("%.1fx", bf/bl))
	}
	t.Notes = append(t.Notes, "the enumeration cost explodes with app count while Blossom stays polynomial")
	return t, nil
}

// AblationQuantum sweeps the scheduling quantum length and reports SYNPA's
// TT speedup over Linux on the published mixed workload fb2 — the
// measurement-noise vs agility trade-off behind the paper's 100 ms choice.
func (s *Suite) AblationQuantum() (*Table, error) {
	model, _, err := s.Model()
	if err != nil {
		return nil, err
	}
	w, err := workload.ByName(s.cfg.Seed, "fb2")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: scheduling quantum length vs SYNPA benefit (fb2)",
		Header: []string{"Quantum (cycles)", "Linux TT", "SYNPA TT", "Speedup"},
	}
	for _, q := range []uint64{s.cfg.Machine.QuantumCycles / 2, s.cfg.Machine.QuantumCycles, s.cfg.Machine.QuantumCycles * 2} {
		cfg := s.cfg.Machine
		cfg.QuantumCycles = q
		tc := workload.NewTargetCache(cfg, s.cfg.RefQuanta, s.cfg.Seed)
		targets, err := tc.Targets(w)
		if err != nil {
			return nil, err
		}
		ttFor := func(policy machine.Policy) (uint64, error) {
			m, err := machine.New(cfg)
			if err != nil {
				return 0, err
			}
			res, err := m.Run(w.Apps, targets, policy, machine.RunnerOptions{
				Seed:      s.cfg.Seed,
				MaxQuanta: s.cfg.MaxQuanta,
			})
			if err != nil {
				return 0, err
			}
			return metrics.TurnaroundCycles(res)
		}
		tl, err := ttFor(sched.Linux{})
		if err != nil {
			return nil, err
		}
		ts, err := ttFor(core.MustPolicy(model, core.PolicyOptions{}))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(q), fmt.Sprint(tl), fmt.Sprint(ts), f3(float64(tl)/float64(ts)))
	}
	return t, nil
}
