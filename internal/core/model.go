// Package core implements the paper's primary contribution: the SYNPA
// interference model and thread-to-core allocation policy (§IV).
//
// The model predicts, per performance category C, the value an application i
// will show in SMT execution with co-runner j from both applications'
// single-threaded (ST) values (Eq. 1):
//
//	C_smt[i,j] = α_C + β_C·C_st[i] + γ_C·C_st[j] + ρ_C·C_st[i]·C_st[j]
//
// Category values are normalised per unit of work: in ST execution the three
// categories of an application sum to 1 (they partition its cycles), and the
// predicted SMT values sum to the application's slowdown — "the sum of three
// categories gathered in SMT execution normalized to isolated execution will
// exceed 100 % cycles, which represents the slowdown" (§IV-A).
//
// The model is written generically over the number of categories so that the
// paper's discarded ten-category preliminary model (§VI-A) and the
// "IBM-style" five-equation comparator (§II) reuse the same machinery for
// the ablation and overhead benches.
package core

import (
	"errors"
	"fmt"
	"math"
)

// Coefficients holds one category's Eq. 1 parameters. The json tags define
// the model wire format (see modelio.go) used by model files and the
// synpad /v1/model endpoint.
type Coefficients struct {
	Alpha float64 `json:"alpha"` // independent term
	Beta  float64 `json:"beta"`  // weight of the application's own ST value
	Gamma float64 `json:"gamma"` // weight of the co-runner's ST value
	Rho   float64 `json:"rho"`   // weight of the product term
}

// Predict evaluates Eq. 1 for one category.
func (c Coefficients) Predict(ci, cj float64) float64 {
	return c.Alpha + c.Beta*ci + c.Gamma*cj + c.Rho*ci*cj
}

// Model is a K-category interference model: one Eq. 1 per category.
type Model struct {
	// Categories names each category, in vector order.
	Categories []string `json:"categories"`
	// Coef holds the per-category coefficients, parallel to Categories.
	Coef []Coefficients `json:"coefficients"`
	// MSE optionally records each category's training mean squared error
	// (reported in §VI-A).
	MSE []float64 `json:"mse,omitempty"`
}

// ThreeCategories are the category names of the paper's final model, in
// vector order: full-dispatch cycles, frontend stalls, backend stalls.
var ThreeCategories = []string{"Full-dispatch cycles", "Frontend stalls", "Backend stalls"}

// PaperCoefficients returns the model published in paper Table IV, fitted on
// the authors' ThunderX2. It is kept as a reference point for documentation
// and coefficient-structure tests; experiments retrain on the simulator
// (§VII: "the regression model should be trained for the workloads to be
// run on the target system").
func PaperCoefficients() *Model {
	return &Model{
		Categories: ThreeCategories,
		Coef: []Coefficients{
			{Alpha: 0.0072, Beta: 0.9060, Gamma: 0.0044, Rho: 0.0314}, // full-dispatch
			{Alpha: 0.2376, Beta: 1.4111, Gamma: 0, Rho: 0},           // frontend stalls
			{Alpha: 0.2069, Beta: 0.3431, Gamma: 1.4391, Rho: 0},      // backend stalls
		},
		MSE: []float64{0.0021, 0.0703, 0.1583},
	}
}

// K returns the number of categories.
func (m *Model) K() int { return len(m.Coef) }

// Validate reports structural errors.
func (m *Model) Validate() error {
	if len(m.Coef) == 0 {
		return errors.New("core: model has no categories")
	}
	if len(m.Categories) != len(m.Coef) {
		return fmt.Errorf("core: %d category names for %d coefficient sets",
			len(m.Categories), len(m.Coef))
	}
	for i, c := range m.Coef {
		if math.IsNaN(c.Alpha+c.Beta+c.Gamma+c.Rho) || math.IsInf(c.Alpha+c.Beta+c.Gamma+c.Rho, 0) {
			return fmt.Errorf("core: category %d has non-finite coefficients", i)
		}
	}
	return nil
}

// PredictPair predicts application i's per-work SMT category vector when
// running with co-runner j, from both ST vectors. Negative predictions are
// clamped to zero (a category cannot take negative time).
func (m *Model) PredictPair(ci, cj []float64) []float64 {
	out := make([]float64, m.K())
	for k, c := range m.Coef {
		v := c.Predict(ci[k], cj[k])
		if v < 0 {
			v = 0
		}
		out[k] = v
	}
	return out
}

// PredictSlowdown predicts the slowdown application i suffers when
// co-scheduled with j: the sum of the predicted per-work SMT categories.
// For a well-calibrated model on a feasible pair this is >= ~1.
func (m *Model) PredictSlowdown(ci, cj []float64) float64 {
	s := 0.0
	for k, c := range m.Coef {
		v := c.Predict(ci[k], cj[k])
		if v < 0 {
			v = 0
		}
		s += v
	}
	return s
}

// PairDegradation is the symmetric pair cost SYNPA minimises: the sum of
// both directions' predicted slowdowns.
func (m *Model) PairDegradation(ci, cj []float64) float64 {
	return m.PredictSlowdown(ci, cj) + m.PredictSlowdown(cj, ci)
}

// InversionOptions tune the model inversion.
type InversionOptions struct {
	// MaxOuter bounds the slowdown fixed-point iterations.
	MaxOuter int
	// MaxNewton bounds the per-category Newton iterations.
	MaxNewton int
	// Tol is the convergence tolerance on the slowdown estimates.
	Tol float64
}

// DefaultInversion returns the tolerances used by the SYNPA policy.
func DefaultInversion() InversionOptions {
	return InversionOptions{MaxOuter: 25, MaxNewton: 30, Tol: 1e-6}
}

// Invert recovers both applications' ST category vectors from their measured
// SMT category *fractions* (each normalised to its own SMT cycles, summing
// to ~1). This is the runtime estimation step of SYNPA (§IV-B Step 1),
// following the model-inversion idea of Feliu et al. [4]: the same Eq. 1
// system that predicts SMT values from ST values is solved in the opposite
// direction.
//
// Because the model's outputs are per-work values (summing to the slowdown)
// while runtime measurements are fractions (summing to 1), the inversion
// also has to recover the unknown slowdowns s_i and s_j. It alternates:
//
//  1. scale fractions by the current slowdown estimates to get per-work
//     measurements;
//  2. per category, solve the 2×2 nonlinear system (Newton) for the two ST
//     values;
//  3. project each recovered ST vector onto the simplex (ST categories
//     partition 100 % of cycles);
//  4. refresh the slowdown estimates by running the model forward.
//
// It returns the recovered ST vectors and whether the fixed point converged;
// on non-convergence the best effort so far is returned (the policy then
// still has usable, if noisier, estimates — matching the "relatively good
// accuracy" caveat in §IV-B).
func (m *Model) Invert(fi, fj []float64, opt InversionOptions) (ci, cj []float64, converged bool) {
	ci, cj = make([]float64, len(fi)), make([]float64, len(fj))
	return ci, cj, m.InvertInto(fi, fj, ci, cj, opt)
}

// InvertInto is Invert writing the recovered ST vectors into ci and cj,
// which must have the lengths of fi and fj and must not alias them. It
// allocates nothing, and its results are bit-identical to Invert's: Invert
// is this solve on fresh rows.
func (m *Model) InvertInto(fi, fj, ci, cj []float64, opt InversionOptions) (converged bool) {
	k := m.K()
	copy(ci, fi)
	copy(cj, fj)
	normalize(ci)
	normalize(cj)

	si, sj := 1.2, 1.2 // a mild initial SMT slowdown guess
	for outer := 0; outer < opt.MaxOuter; outer++ {
		for cat := 0; cat < k; cat++ {
			pi := fi[cat] * si
			pj := fj[cat] * sj
			x, y := m.solveCategory(cat, pi, pj, ci[cat], cj[cat], opt.MaxNewton)
			ci[cat], cj[cat] = x, y
		}
		normalize(ci)
		normalize(cj)

		newSi := m.PredictSlowdown(ci, cj)
		newSj := m.PredictSlowdown(cj, ci)
		// Slowdowns below 1 are physically impossible; keep the fixed
		// point in the feasible region.
		if newSi < 1 {
			newSi = 1
		}
		if newSj < 1 {
			newSj = 1
		}
		if math.Abs(newSi-si) < opt.Tol && math.Abs(newSj-sj) < opt.Tol {
			return true
		}
		si, sj = newSi, newSj
	}
	return false
}

// solveCategory solves the per-category 2×2 system
//
//	pi = α + β·x + γ·y + ρ·x·y
//	pj = α + β·y + γ·x + ρ·x·y
//
// for (x, y) by Newton's method, starting from (x0, y0). Results are clamped
// to [0, 2] — ST fractions live in [0, 1], with slack for intermediate
// iterates.
func (m *Model) solveCategory(cat int, pi, pj, x0, y0 float64, maxIter int) (float64, float64) {
	c := m.Coef[cat]
	x, y := clamp01x2(x0), clamp01x2(y0)
	for iter := 0; iter < maxIter; iter++ {
		f1 := c.Alpha + c.Beta*x + c.Gamma*y + c.Rho*x*y - pi
		f2 := c.Alpha + c.Beta*y + c.Gamma*x + c.Rho*x*y - pj
		if math.Abs(f1) < 1e-12 && math.Abs(f2) < 1e-12 {
			break
		}
		// Jacobian.
		j11 := c.Beta + c.Rho*y
		j12 := c.Gamma + c.Rho*x
		j21 := c.Gamma + c.Rho*y
		j22 := c.Beta + c.Rho*x
		det := j11*j22 - j12*j21
		if math.Abs(det) < 1e-12 {
			// Singular (e.g. the paper's FE category where γ=ρ=0 makes
			// the equations decouple — but then det = β² > 0 unless
			// β=0). Fall back to the decoupled per-equation solution.
			if c.Beta != 0 {
				x = clamp01x2((pi - c.Alpha - c.Gamma*y) / (c.Beta + c.Rho*y))
				y = clamp01x2((pj - c.Alpha - c.Gamma*x) / (c.Beta + c.Rho*x))
			}
			break
		}
		dx := (f1*j22 - f2*j12) / det
		dy := (f2*j11 - f1*j21) / det
		x = clamp01x2(x - dx)
		y = clamp01x2(y - dy)
		if math.Abs(dx) < 1e-12 && math.Abs(dy) < 1e-12 {
			break
		}
	}
	return x, y
}

func clamp01x2(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 2 {
		return 2
	}
	return v
}

// normalize projects a non-negative vector onto the probability simplex by
// scaling (ST categories partition the application's cycles). A zero vector
// becomes uniform.
func normalize(v []float64) {
	s := 0.0
	for i, x := range v {
		if x < 0 {
			v[i] = 0
			continue
		}
		s += x
	}
	if s <= 0 {
		for i := range v {
			v[i] = 1 / float64(len(v))
		}
		return
	}
	for i := range v {
		if v[i] > 0 {
			v[i] /= s
		}
	}
}
