package core

import (
	"math"
	"testing"
	"testing/quick"

	"synpa/internal/xrand"
)

func TestPaperCoefficients(t *testing.T) {
	m := PaperCoefficients()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.K() != 3 {
		t.Fatalf("K = %d, want 3", m.K())
	}
	// Exact Table IV values.
	if m.Coef[0].Beta != 0.9060 || m.Coef[1].Beta != 1.4111 || m.Coef[2].Gamma != 1.4391 {
		t.Fatalf("Table IV coefficients wrong: %+v", m.Coef)
	}
	// Table IV structure: backend γ dominates, frontend γ=ρ=0.
	if m.Coef[2].Gamma <= m.Coef[0].Gamma || m.Coef[1].Gamma != 0 || m.Coef[1].Rho != 0 {
		t.Fatal("Table IV structure not preserved")
	}
	// §VI-A MSE values and ordering.
	if m.MSE[0] != 0.0021 || m.MSE[1] != 0.0703 || m.MSE[2] != 0.1583 {
		t.Fatalf("MSE = %v", m.MSE)
	}
}

func TestModelValidate(t *testing.T) {
	if (&Model{}).Validate() == nil {
		t.Fatal("empty model accepted")
	}
	m := &Model{Categories: []string{"a"}, Coef: []Coefficients{{}, {}}}
	if m.Validate() == nil {
		t.Fatal("mismatched names accepted")
	}
	m = &Model{Categories: []string{"a"}, Coef: []Coefficients{{Alpha: math.NaN()}}}
	if m.Validate() == nil {
		t.Fatal("NaN coefficients accepted")
	}
}

func TestPredictKnownValues(t *testing.T) {
	c := Coefficients{Alpha: 0.1, Beta: 0.5, Gamma: 2, Rho: 1}
	// 0.1 + 0.5·0.2 + 2·0.3 + 1·0.06 = 0.86
	if got := c.Predict(0.2, 0.3); math.Abs(got-0.86) > 1e-12 {
		t.Fatalf("Predict = %v, want 0.86", got)
	}
}

func TestPredictPairClampsNegative(t *testing.T) {
	m := &Model{
		Categories: []string{"x"},
		Coef:       []Coefficients{{Alpha: -1}},
	}
	out := m.PredictPair([]float64{0}, []float64{0})
	if out[0] != 0 {
		t.Fatalf("negative prediction not clamped: %v", out[0])
	}
	if s := m.PredictSlowdown([]float64{0}, []float64{0}); s != 0 {
		t.Fatalf("slowdown with clamp = %v", s)
	}
}

func TestPredictSlowdownIsSumOfCategories(t *testing.T) {
	m := PaperCoefficients()
	ci := []float64{0.2, 0.3, 0.5}
	cj := []float64{0.1, 0.1, 0.8}
	pred := m.PredictPair(ci, cj)
	sum := pred[0] + pred[1] + pred[2]
	if got := m.PredictSlowdown(ci, cj); math.Abs(got-sum) > 1e-12 {
		t.Fatalf("slowdown %v != category sum %v", got, sum)
	}
	if sum <= 1 {
		t.Fatalf("paper model should predict slowdown > 1 for a heavy pair, got %v", sum)
	}
}

func TestPairDegradationSymmetricRoles(t *testing.T) {
	m := PaperCoefficients()
	ci := []float64{0.2, 0.3, 0.5}
	cj := []float64{0.5, 0.3, 0.2}
	// PairDegradation must be symmetric in argument order even though the
	// individual slowdowns differ (the paper stresses C_smt[i,j] ≠
	// C_smt[j,i]).
	if a, b := m.PairDegradation(ci, cj), m.PairDegradation(cj, ci); math.Abs(a-b) > 1e-12 {
		t.Fatalf("PairDegradation asymmetric: %v vs %v", a, b)
	}
	si := m.PredictSlowdown(ci, cj)
	sj := m.PredictSlowdown(cj, ci)
	if math.Abs(si-sj) < 1e-9 {
		t.Fatal("individual slowdowns should differ for asymmetric profiles")
	}
}

// syntheticModel returns a well-behaved invertible model for round-trip
// tests: moderate interference in every category.
func syntheticModel() *Model {
	return &Model{
		Categories: ThreeCategories,
		Coef: []Coefficients{
			{Alpha: 0.01, Beta: 0.95, Gamma: 0.02, Rho: 0.05},
			{Alpha: 0.02, Beta: 1.10, Gamma: 0.05, Rho: 0.10},
			{Alpha: 0.05, Beta: 0.90, Gamma: 0.60, Rho: 0.40},
		},
	}
}

func TestInvertRoundTrip(t *testing.T) {
	// Forward-model two ST vectors, convert to fractions, invert, and
	// check the originals are recovered.
	m := syntheticModel()
	rng := xrand.New(2024)
	opt := DefaultInversion()
	worst := 0.0
	for trial := 0; trial < 200; trial++ {
		ci := randomSimplex(rng)
		cj := randomSimplex(rng)
		pi := m.PredictPair(ci, cj)
		pj := m.PredictPair(cj, ci)
		fi, si := toFractions(pi)
		fj, sj := toFractions(pj)
		if si < 1 || sj < 1 {
			continue // degenerate draw, not a feasible SMT observation
		}
		gi, gj, _ := m.Invert(fi, fj, opt)
		for k := 0; k < 3; k++ {
			worst = math.Max(worst, math.Abs(gi[k]-ci[k]))
			worst = math.Max(worst, math.Abs(gj[k]-cj[k]))
		}
	}
	t.Logf("worst ST recovery error = %.4f", worst)
	if worst > 0.05 {
		t.Fatalf("inversion error %.4f too large; the Feliu-style inversion is broken", worst)
	}
}

func TestInvertRecoversSlowdowns(t *testing.T) {
	m := syntheticModel()
	ci := []float64{0.30, 0.20, 0.50}
	cj := []float64{0.40, 0.40, 0.20}
	pi := m.PredictPair(ci, cj)
	pj := m.PredictPair(cj, ci)
	fi, si := toFractions(pi)
	fj, _ := toFractions(pj)
	gi, gj, conv := m.Invert(fi, fj, DefaultInversion())
	if !conv {
		t.Fatal("inversion did not converge on clean synthetic data")
	}
	// Forward prediction from recovered STs must reproduce the slowdown.
	if got := m.PredictSlowdown(gi, gj); math.Abs(got-si) > 0.02 {
		t.Fatalf("recovered slowdown %v, want %v", got, si)
	}
}

func TestInvertDegenerateInputs(t *testing.T) {
	m := syntheticModel()
	opt := DefaultInversion()
	// All-zero fractions: must not panic or return NaN.
	ci, cj, _ := m.Invert([]float64{0, 0, 0}, []float64{0, 0, 0}, opt)
	for k := range ci {
		if math.IsNaN(ci[k]) || math.IsNaN(cj[k]) {
			t.Fatal("NaN from degenerate inversion")
		}
	}
	// Output must be a simplex point.
	if s := ci[0] + ci[1] + ci[2]; math.Abs(s-1) > 1e-9 {
		t.Fatalf("degenerate inversion broke the simplex: sum %v", s)
	}
}

func TestInvertPropertyNeverNaN(t *testing.T) {
	m := syntheticModel()
	opt := DefaultInversion()
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		fi := randomSimplex(rng)
		fj := randomSimplex(rng)
		ci, cj, _ := m.Invert(fi, fj, opt)
		for k := range ci {
			if math.IsNaN(ci[k]) || math.IsInf(ci[k], 0) || ci[k] < 0 {
				return false
			}
			if math.IsNaN(cj[k]) || math.IsInf(cj[k], 0) || cj[k] < 0 {
				return false
			}
		}
		si := 0.0
		for _, v := range ci {
			si += v
		}
		return math.Abs(si-1) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInvertIntoBitIdentical pins the in-place inversion to Invert: into
// rows holding a previous solve's results, for the paper and synthetic
// models, InvertInto writes the bits Invert returns on fresh rows, reports
// the same convergence, and allocates nothing.
func TestInvertIntoBitIdentical(t *testing.T) {
	opt := DefaultInversion()
	rng := xrand.New(7)
	ci, cj := make([]float64, 3), make([]float64, 3)
	for _, m := range []*Model{PaperCoefficients(), syntheticModel()} {
		for trial := range 200 {
			fi, fj := randomSimplex(rng), randomSimplex(rng)
			if trial%50 == 0 {
				fi = []float64{0, 0, 0} // the degenerate uniform restart
			}
			wi, wj, wconv := m.Invert(fi, fj, opt)
			if conv := m.InvertInto(fi, fj, ci, cj, opt); conv != wconv {
				t.Fatalf("trial %d: converged %v, Invert %v", trial, conv, wconv)
			}
			for k := range wi {
				if math.Float64bits(ci[k]) != math.Float64bits(wi[k]) ||
					math.Float64bits(cj[k]) != math.Float64bits(wj[k]) {
					t.Fatalf("trial %d: InvertInto %v %v, Invert %v %v", trial, ci, cj, wi, wj)
				}
			}
		}
		fi, fj := randomSimplex(rng), randomSimplex(rng)
		if allocs := testing.AllocsPerRun(100, func() { m.InvertInto(fi, fj, ci, cj, opt) }); allocs != 0 {
			t.Fatalf("InvertInto allocates %v times per call", allocs)
		}
	}
}

// randomSimplex draws a random point on the 3-simplex.
func randomSimplex(rng *xrand.RNG) []float64 {
	v := []float64{rng.Float64() + 0.01, rng.Float64() + 0.01, rng.Float64() + 0.01}
	s := v[0] + v[1] + v[2]
	for i := range v {
		v[i] /= s
	}
	return v
}

// toFractions converts per-work category values to fractions + slowdown.
func toFractions(p []float64) ([]float64, float64) {
	s := 0.0
	for _, v := range p {
		s += v
	}
	f := make([]float64, len(p))
	if s > 0 {
		for i := range p {
			f[i] = p[i] / s
		}
	}
	return f, s
}

func TestNormalize(t *testing.T) {
	v := []float64{2, 6, 2}
	normalize(v)
	if v[0] != 0.2 || v[1] != 0.6 || v[2] != 0.2 {
		t.Fatalf("normalize = %v", v)
	}
	z := []float64{0, 0}
	normalize(z)
	if z[0] != 0.5 || z[1] != 0.5 {
		t.Fatalf("zero vector → %v, want uniform", z)
	}
	n := []float64{-1, 3}
	normalize(n)
	if n[0] != 0 || n[1] != 1 {
		t.Fatalf("negative clamp → %v", n)
	}
}

func BenchmarkPredictSlowdown3Cat(b *testing.B) {
	m := PaperCoefficients()
	ci := []float64{0.2, 0.3, 0.5}
	cj := []float64{0.1, 0.1, 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.PredictSlowdown(ci, cj)
	}
}

func BenchmarkInvert(b *testing.B) {
	m := syntheticModel()
	fi := []float64{0.25, 0.25, 0.5}
	fj := []float64{0.5, 0.3, 0.2}
	opt := DefaultInversion()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Invert(fi, fj, opt)
	}
}

// BenchmarkInvertInto times one in-place inversion on the paper model,
// the Step 1 cost a policy without a memo pays per co-runner group.
func BenchmarkInvertInto(b *testing.B) {
	m := PaperCoefficients()
	fi := []float64{0.25, 0.25, 0.5}
	fj := []float64{0.5, 0.3, 0.2}
	ci, cj := make([]float64, 3), make([]float64, 3)
	opt := DefaultInversion()
	b.ReportAllocs()
	for b.Loop() {
		m.InvertInto(fi, fj, ci, cj, opt)
	}
}
