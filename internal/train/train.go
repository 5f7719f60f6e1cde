// Package train implements the model-training pipeline of paper §IV-C:
//
//  1. run every training application in isolation, recording each quantum's
//     category fractions and committed-instruction counts;
//  2. run every pair of training applications in SMT mode, recording the
//     same data per application;
//  3. use the committed-instruction counts to map each SMT quantum back to
//     the single-threaded execution of the same work ("the number of
//     committed instructions allows us to map the category values of an
//     application when it runs in isolation to the corresponding values when
//     it runs in SMT mode");
//  4. select a random subset of the aligned quanta and fit the Eq. 1
//     regression per category.
//
// The response variable is the per-work SMT category value: the cycles the
// category consumed in the SMT quantum divided by the ST cycles the same
// instructions took in isolation. Summed over categories this is exactly
// the application's slowdown, matching §IV-A's reading of the model.
package train

import (
	"fmt"
	"sort"

	"synpa/internal/apps"
	"synpa/internal/core"
	"synpa/internal/machine"
	"synpa/internal/pmu"
	"synpa/internal/pool"
	"synpa/internal/regression"
	"synpa/internal/xrand"
)

// Options configure a training run.
type Options struct {
	// Machine is the system configuration to train on.
	Machine machine.Config
	// IsolatedQuanta is the profiling length per application (ST mode).
	IsolatedQuanta int
	// PairQuanta is the run length per SMT pair.
	PairQuanta int
	// SampleFrac is the fraction of aligned quanta kept for fitting
	// (the paper uses a random subset). 1.0 keeps everything.
	SampleFrac float64
	// Seed drives application streams and the quantum subsampling.
	Seed uint64
	// Extract converts samples to category fractions; defaults to the
	// three-category extractor.
	Extract core.Extractor
	// Categories names the extractor's outputs; defaults to the paper's
	// three categories.
	Categories []string
	// Parallel fans the pair runs out over CPUs.
	Parallel bool
}

// DefaultOptions returns the configuration used by the experiments.
func DefaultOptions() Options {
	return Options{
		Machine:        machine.DefaultConfig(),
		IsolatedQuanta: 140,
		PairQuanta:     100,
		SampleFrac:     0.6,
		Seed:           0x5EED,
		Parallel:       true,
	}
}

// Report describes the outcome of a training run.
type Report struct {
	// Apps is the number of training applications.
	Apps int
	// Pairs is the number of SMT pair runs executed.
	Pairs int
	// Samples is the number of aligned quantum samples fitted per
	// category.
	Samples int
	// MSE and R2 are the per-category fit statistics.
	MSE []float64
	R2  []float64
	// Constant names, in category order, each category whose kept
	// responses are all equal. Its fit is exact (R² 1) and says nothing:
	// the training runs never exercised that category.
	Constant []string
}

// isolatedProfile is one application's ST profile.
type isolatedProfile struct {
	fractions [][]float64 // per quantum, per category
	cycles    []float64   // per quantum
	cumInsts  []uint64    // cumulative retired instructions (end of quantum)
	cumCycles []float64   // cumulative cycles (end of quantum)
}

// stWindow integrates the ST profile over the retired-instruction range
// (a, b]: it returns the average category fractions over that work and the
// ST cycles it took. ok is false when the range is empty or outside the
// profiled region.
func (p *isolatedProfile) stWindow(a, b uint64, k int) (frac []float64, cycles float64, ok bool) {
	if b <= a || len(p.cumInsts) == 0 || b > p.cumInsts[len(p.cumInsts)-1] {
		return nil, 0, false
	}
	frac = make([]float64, k)
	// Locate the quantum containing instruction x: first index with
	// cumInsts >= x.
	start := sort.Search(len(p.cumInsts), func(i int) bool { return p.cumInsts[i] > a })
	for q := start; q < len(p.cumInsts); q++ {
		qStartInst := uint64(0)
		if q > 0 {
			qStartInst = p.cumInsts[q-1]
		}
		if qStartInst >= b {
			break
		}
		qInsts := p.cumInsts[q] - qStartInst
		if qInsts == 0 {
			continue
		}
		lo := max64(a, qStartInst)
		hi := min64(b, p.cumInsts[q])
		share := float64(hi-lo) / float64(qInsts)
		c := p.cycles[q] * share
		cycles += c
		for i := 0; i < k; i++ {
			frac[i] += p.fractions[q][i] * c
		}
	}
	if cycles <= 0 {
		return nil, 0, false
	}
	for i := range frac {
		frac[i] /= cycles
	}
	return frac, cycles, true
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// profileIsolated builds an application's ST profile.
func profileIsolated(m *apps.Model, opt *Options) (*isolatedProfile, error) {
	runs, err := machine.RunPinned([]*apps.Model{m}, []uint64{opt.Seed ^ hashName(m.Name)}, opt.IsolatedQuanta, opt.Machine)
	if err != nil {
		return nil, err
	}
	samples := runs[0]
	p := &isolatedProfile{
		fractions: make([][]float64, 0, len(samples)),
		cycles:    make([]float64, 0, len(samples)),
		cumInsts:  make([]uint64, 0, len(samples)),
		cumCycles: make([]float64, 0, len(samples)),
	}
	var cumI uint64
	var cumC float64
	k := len(opt.Categories)
	for _, s := range samples {
		f := opt.Extract(nil, s, opt.Machine.Core.DispatchWidth)
		if len(f) != k {
			return nil, fmt.Errorf("train: extractor produced %d categories, want %d", len(f), k)
		}
		cumI += s[pmu.InstRetired]
		cumC += float64(s[pmu.CPUCycles])
		p.fractions = append(p.fractions, f)
		p.cycles = append(p.cycles, float64(s[pmu.CPUCycles]))
		p.cumInsts = append(p.cumInsts, cumI)
		p.cumCycles = append(p.cumCycles, cumC)
	}
	return p, nil
}

// hashName gives each application a stable seed offset. It is FNV-1a with
// an offset basis one digit short of FNV's (1469598103934665603, not
// 14695981039346656037). Every trained model and every golden digest
// depends on these seeds, so the value stays as it is.
func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// pairSamples holds the regression samples produced by one SMT pair run:
// per category, rows of (ciST, cjST) with the per-work SMT response.
type pairSamples struct {
	ci, cj [][]float64 // per aligned quantum: ST vectors of app and co-runner
	y      [][]float64 // per aligned quantum: per-work SMT category values
}

// runPair executes one SMT pair and aligns its quanta against the ST
// profiles.
func runPair(a, b *apps.Model, pa, pb *isolatedProfile, opt *Options) (*pairSamples, error) {
	runs, err := machine.RunPinned([]*apps.Model{a, b},
		[]uint64{opt.Seed ^ hashName(a.Name) ^ 0xA5A5, opt.Seed ^ hashName(b.Name) ^ 0x5A5A},
		opt.PairQuanta, opt.Machine)
	if err != nil {
		return nil, err
	}
	sa, sb := runs[0], runs[1]
	k := len(opt.Categories)
	maxRows := 2 * len(sa)
	out := &pairSamples{
		ci: make([][]float64, 0, maxRows),
		cj: make([][]float64, 0, maxRows),
		y:  make([][]float64, 0, maxRows),
	}
	// Response rows are carved from one arena instead of two small
	// allocations per aligned quantum.
	yArena := make([]float64, maxRows*k)
	var cumA, cumB uint64
	for q := range sa {
		instA := sa[q][pmu.InstRetired]
		instB := sb[q][pmu.InstRetired]
		fracA, stCycA, okA := pa.stWindow(cumA, cumA+instA, k)
		fracB, stCycB, okB := pb.stWindow(cumB, cumB+instB, k)
		cumA += instA
		cumB += instB
		if !okA || !okB {
			continue
		}
		// Per-work SMT category values for both directions.
		smtA := opt.Extract(nil, sa[q], opt.Machine.Core.DispatchWidth)
		smtB := opt.Extract(nil, sb[q], opt.Machine.Core.DispatchWidth)
		cycA := float64(sa[q][pmu.CPUCycles])
		cycB := float64(sb[q][pmu.CPUCycles])
		ya := yArena[:k:k]
		yb := yArena[k : 2*k : 2*k]
		yArena = yArena[2*k:]
		for i := 0; i < k; i++ {
			ya[i] = smtA[i] * cycA / stCycA
			yb[i] = smtB[i] * cycB / stCycB
		}
		out.ci = append(out.ci, fracA, fracB)
		out.cj = append(out.cj, fracB, fracA)
		out.y = append(out.y, ya, yb)
	}
	return out, nil
}

// Train fits a K-category interference model on the given training
// applications, following §IV-C. It returns the fitted model and a report.
func Train(models []*apps.Model, opt Options) (*core.Model, *Report, error) {
	if len(models) < 2 {
		return nil, nil, fmt.Errorf("train: need at least two applications, got %d", len(models))
	}
	if opt.Extract == nil {
		opt.Extract = core.ThreeCategoryFractions
	}
	if opt.Categories == nil {
		opt.Categories = core.ThreeCategories
	}
	if opt.IsolatedQuanta <= 0 || opt.PairQuanta <= 0 {
		return nil, nil, fmt.Errorf("train: quanta counts must be positive")
	}
	if opt.IsolatedQuanta < opt.PairQuanta {
		// ST profiles must cover at least as much work as the SMT runs;
		// ST execution is never slower, so equal quanta suffice, but a
		// margin avoids dropping tail samples.
		return nil, nil, fmt.Errorf("train: IsolatedQuanta (%d) must be >= PairQuanta (%d)",
			opt.IsolatedQuanta, opt.PairQuanta)
	}
	if opt.SampleFrac <= 0 || opt.SampleFrac > 1 {
		return nil, nil, fmt.Errorf("train: SampleFrac %v outside (0,1]", opt.SampleFrac)
	}
	k := len(opt.Categories)

	// Phase 1: isolated profiles (parallel across apps).
	profiles := make([]*isolatedProfile, len(models))
	if err := pool.Run(len(models), opt.Parallel, func(i int) error {
		p, err := profileIsolated(models[i], &opt)
		if err != nil {
			return err
		}
		profiles[i] = p
		return nil
	}); err != nil {
		return nil, nil, err
	}

	// Phase 2: all pairs in SMT (parallel across pairs).
	type pairIdx struct{ a, b int }
	var pairs []pairIdx
	for i := 0; i < len(models); i++ {
		for j := i + 1; j < len(models); j++ {
			pairs = append(pairs, pairIdx{i, j})
		}
	}
	results := make([]*pairSamples, len(pairs))
	if err := pool.Run(len(pairs), opt.Parallel, func(pi int) error {
		pr := pairs[pi]
		ps, err := runPair(models[pr.a], models[pr.b], profiles[pr.a], profiles[pr.b], &opt)
		if err != nil {
			return err
		}
		results[pi] = ps
		return nil
	}); err != nil {
		return nil, nil, err
	}

	// Phase 3: assemble samples in deterministic order and subsample.
	var allCi, allCj [][]float64
	var allY [][]float64
	for _, ps := range results {
		allCi = append(allCi, ps.ci...)
		allCj = append(allCj, ps.cj...)
		allY = append(allY, ps.y...)
	}
	if len(allY) < 4*k {
		return nil, nil, fmt.Errorf("train: only %d aligned samples; runs too short", len(allY))
	}
	rng := xrand.New(opt.Seed ^ 0x7121319)
	keep := make([]int, 0, len(allY))
	for i := range allY {
		if opt.SampleFrac >= 1 || rng.Float64() < opt.SampleFrac {
			keep = append(keep, i)
		}
	}
	if len(keep) < 8 {
		keep = keep[:0]
		for i := range allY {
			keep = append(keep, i)
		}
	}

	// Phase 4: one regression per category.
	model := &core.Model{
		Categories: append([]string(nil), opt.Categories...),
		Coef:       make([]core.Coefficients, k),
		MSE:        make([]float64, k),
	}
	report := &Report{
		Apps:    len(models),
		Pairs:   len(pairs),
		Samples: len(keep),
		MSE:     make([]float64, k),
		R2:      make([]float64, k),
	}
	for cat := 0; cat < k; cat++ {
		x := make([][]float64, 0, len(keep))
		y := make([]float64, 0, len(keep))
		for _, idx := range keep {
			x = append(x, regression.PairRow(allCi[idx][cat], allCj[idx][cat]))
			y = append(y, allY[idx][cat])
		}
		fit, err := regression.Fit(x, y)
		if err != nil {
			return nil, nil, fmt.Errorf("train: category %q: %w", opt.Categories[cat], err)
		}
		model.Coef[cat] = core.Coefficients{
			Alpha: fit.Coef[0], Beta: fit.Coef[1], Gamma: fit.Coef[2], Rho: fit.Coef[3],
		}
		model.MSE[cat] = fit.MSE
		report.MSE[cat] = fit.MSE
		report.R2[cat] = fit.R2
		if constant(y) {
			report.Constant = append(report.Constant, opt.Categories[cat])
		}
	}
	return model, report, nil
}

// constant reports whether every value of y equals the first.
func constant(y []float64) bool {
	for _, v := range y {
		if v != y[0] {
			return false
		}
	}
	return true
}
