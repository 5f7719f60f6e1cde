package train

import (
	"math"
	"slices"
	"testing"

	"synpa/internal/apps"
	"synpa/internal/core"
)

func TestTrainValidation(t *testing.T) {
	one := []*apps.Model{apps.TrainingSet()[0]}
	if _, _, err := Train(one, DefaultOptions()); err == nil {
		t.Fatal("single-app training accepted")
	}
	two := apps.TrainingSet()[:2]
	bad := smallOptions()
	bad.IsolatedQuanta = 0
	if _, _, err := Train(two, bad); err == nil {
		t.Fatal("zero quanta accepted")
	}
	bad = smallOptions()
	bad.IsolatedQuanta = 10
	bad.PairQuanta = 20
	if _, _, err := Train(two, bad); err == nil {
		t.Fatal("IsolatedQuanta < PairQuanta accepted")
	}
	bad = smallOptions()
	bad.SampleFrac = 0
	if _, _, err := Train(two, bad); err == nil {
		t.Fatal("zero sample fraction accepted")
	}
	bad = smallOptions()
	bad.SampleFrac = 1.5
	if _, _, err := Train(two, bad); err == nil {
		t.Fatal("sample fraction > 1 accepted")
	}
}

func TestTrainTwoAppsMinimal(t *testing.T) {
	models := smallTrainingSet(t, "mcf", "leela_r")
	opt := smallOptions()
	m, rep, err := Train(models, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != 1 {
		t.Fatalf("pairs = %d, want 1", rep.Pairs)
	}
	if m.K() != 3 {
		t.Fatalf("K = %d", m.K())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for k, mse := range rep.MSE {
		if math.IsNaN(mse) || mse < 0 {
			t.Fatalf("category %d MSE = %v", k, mse)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	models := smallTrainingSet(t, "mcf", "leela_r", "nab_r")
	run := func() core.Coefficients {
		m, _, err := Train(models, smallOptions())
		if err != nil {
			t.Fatal(err)
		}
		return m.Coef[2]
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("training not deterministic: %+v vs %+v", a, b)
	}
}

func TestTrainParallelMatchesSequential(t *testing.T) {
	models := smallTrainingSet(t, "mcf", "leela_r", "nab_r", "gobmk")
	opt := smallOptions()
	opt.Parallel = false
	seqM, _, err := Train(models, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallel = true
	parM, _, err := Train(models, opt)
	if err != nil {
		t.Fatal(err)
	}
	for k := range seqM.Coef {
		if seqM.Coef[k] != parM.Coef[k] {
			t.Fatalf("parallel training changed category %d: %+v vs %+v",
				k, seqM.Coef[k], parM.Coef[k])
		}
	}
}

func TestTrainSubsampling(t *testing.T) {
	models := smallTrainingSet(t, "mcf", "leela_r", "nab_r")
	full := smallOptions()
	full.SampleFrac = 1.0
	_, repFull, err := Train(models, full)
	if err != nil {
		t.Fatal(err)
	}
	half := smallOptions()
	half.SampleFrac = 0.5
	_, repHalf, err := Train(models, half)
	if err != nil {
		t.Fatal(err)
	}
	if repHalf.Samples >= repFull.Samples {
		t.Fatalf("subsampling kept %d of %d samples", repHalf.Samples, repFull.Samples)
	}
	if repHalf.Samples < repFull.Samples/3 {
		t.Fatalf("subsampling too aggressive: %d of %d", repHalf.Samples, repFull.Samples)
	}
}

func TestTrainTenCategoryModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	models := smallTrainingSet(t, "mcf", "lbm_r", "leela_r", "gobmk", "hmmer", "nab_r")
	opt := smallOptions()
	opt.Extract = core.TenCategoryFractions
	opt.Categories = core.TenCategories
	m, rep, err := Train(models, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 10 {
		t.Fatalf("K = %d, want 10", m.K())
	}
	if len(rep.MSE) != 10 {
		t.Fatalf("MSE has %d entries", len(rep.MSE))
	}
}

// TestTrainFlagsConstantCategories pins which categories a tiny training
// run never exercises. On four applications and 10 pair quanta (the
// configuration the serving smoke test trains) the simulator never raises
// the IQ-full, LDQ-full, STQ-full or "other" backend stalls, so those four
// ten-category responses are constant; the three-category model on the
// same runs has none.
func TestTrainFlagsConstantCategories(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	models := smallTrainingSet(t, "mcf", "lbm_r", "leela_r", "gobmk")
	opt := DefaultOptions()
	opt.PairQuanta = 10
	_, rep3, err := Train(models, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Constant) != 0 {
		t.Fatalf("three-category training flagged %q", rep3.Constant)
	}
	opt.Extract = core.TenCategoryFractions
	opt.Categories = core.TenCategories
	_, rep10, err := Train(models, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BE: IQ full", "BE: LDQ full", "BE: STQ full", "BE: other"}
	if !slices.Equal(rep10.Constant, want) {
		t.Fatalf("ten-category training flagged %q, want %q", rep10.Constant, want)
	}
}

// --- stWindow unit tests -----------------------------------------------------

// profileFor builds a tiny synthetic isolated profile: quanta of 100 cycles
// each retiring 50 instructions, with distinct category vectors.
func syntheticProfile() *isolatedProfile {
	p := &isolatedProfile{}
	fracs := [][]float64{
		{1, 0, 0},
		{0, 1, 0},
		{0, 0, 1},
	}
	var cumI uint64
	var cumC float64
	for q := 0; q < 3; q++ {
		cumI += 50
		cumC += 100
		p.fractions = append(p.fractions, fracs[q])
		p.cycles = append(p.cycles, 100)
		p.cumInsts = append(p.cumInsts, cumI)
		p.cumCycles = append(p.cumCycles, cumC)
	}
	return p
}

func TestSTWindowWholeQuantum(t *testing.T) {
	p := syntheticProfile()
	frac, cycles, ok := p.stWindow(0, 50, 3)
	if !ok {
		t.Fatal("window rejected")
	}
	if cycles != 100 {
		t.Fatalf("cycles = %v, want 100", cycles)
	}
	if frac[0] != 1 || frac[1] != 0 {
		t.Fatalf("frac = %v", frac)
	}
}

func TestSTWindowSpansQuanta(t *testing.T) {
	p := syntheticProfile()
	// Instructions 25..125: half of q0, all of q1, half of q2.
	frac, cycles, ok := p.stWindow(25, 125, 3)
	if !ok {
		t.Fatal("window rejected")
	}
	if math.Abs(cycles-200) > 1e-9 {
		t.Fatalf("cycles = %v, want 200", cycles)
	}
	// Weighted: 50 cycles of cat0, 100 of cat1, 50 of cat2.
	want := []float64{0.25, 0.5, 0.25}
	for i := range want {
		if math.Abs(frac[i]-want[i]) > 1e-9 {
			t.Fatalf("frac = %v, want %v", frac, want)
		}
	}
}

func TestSTWindowRejectsBadRanges(t *testing.T) {
	p := syntheticProfile()
	if _, _, ok := p.stWindow(10, 10, 3); ok {
		t.Fatal("empty range accepted")
	}
	if _, _, ok := p.stWindow(20, 10, 3); ok {
		t.Fatal("inverted range accepted")
	}
	if _, _, ok := p.stWindow(100, 200, 3); ok {
		t.Fatal("range beyond profile accepted")
	}
	empty := &isolatedProfile{}
	if _, _, ok := empty.stWindow(0, 10, 3); ok {
		t.Fatal("empty profile accepted")
	}
}

func TestHashNameStable(t *testing.T) {
	if hashName("mcf") != hashName("mcf") {
		t.Fatal("hashName unstable")
	}
	if hashName("mcf") == hashName("lbm_r") {
		t.Fatal("hashName collision on catalogue names")
	}
}
