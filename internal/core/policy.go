package core

import (
	"fmt"
	"math"

	"synpa/internal/grouping"
	"synpa/internal/machine"
	"synpa/internal/matching"
	"synpa/internal/perfstat"
	"synpa/internal/predcache"
)

// Matcher selects how the policy turns the pairwise degradation matrix into
// a placement (the Step 3 of §IV-B).
type Matcher int

const (
	// MatcherBlossom uses Edmonds' Blossom minimum-weight perfect
	// matching — the paper's choice [21] — behind an exact subset-DP fast
	// path that answers small graphs with a unique optimum, with the
	// groups blossom would return (matching.MinWeightPaddedMatching).
	MatcherBlossom Matcher = iota
	// MatcherBruteForce enumerates all pairings (the combinatorial
	// explosion the paper avoids); kept for the overhead ablation.
	MatcherBruteForce
	// MatcherGreedy repeatedly takes the lightest remaining edge; a
	// cheaper, suboptimal baseline for the matcher ablation.
	MatcherGreedy
)

// String names the matcher for experiment output.
func (m Matcher) String() string {
	switch m {
	case MatcherBlossom:
		return "blossom"
	case MatcherBruteForce:
		return "brute-force"
	case MatcherGreedy:
		return "greedy"
	}
	return fmt.Sprintf("Matcher(%d)", int(m))
}

// PolicyOptions tune the SYNPA policy; the zero value plus a model gives the
// paper's configuration.
type PolicyOptions struct {
	// Extract converts PMU samples to category fractions. Defaults to
	// ThreeCategoryFractions.
	Extract Extractor
	// Matcher selects the pair-selection algorithm at SMT2. Defaults to
	// Blossom.
	Matcher Matcher
	// DisableInversion skips the model inversion and uses the measured
	// SMT fractions directly as ST estimates — an ablation quantifying
	// the value of §IV-B Step 1.
	DisableInversion bool
	// Smoothing is the exponential-moving-average weight given to the
	// previous quantum's ST estimate. The paper measures over 100 ms
	// quanta (~2·10⁸ cycles); the simulator's scaled quanta are ~10⁴×
	// shorter and correspondingly noisier, so smoothing substitutes for
	// the averaging the long hardware quantum provides (DESIGN.md §2).
	// Zero selects the default (0.5); negative disables smoothing.
	Smoothing float64
	// Hysteresis keeps the previous co-runner groups unless the new
	// groups improve the predicted total degradation by more than this
	// relative fraction. It suppresses migration churn on measurement
	// noise (same noise-compensation argument as Smoothing). Zero selects
	// the default (0.01); negative disables hysteresis.
	Hysteresis float64
	// Inversion tunes the inversion solver; zero value uses defaults.
	Inversion InversionOptions
	// Grouping tunes the set-partition solver used at every SMT level but
	// two (internal/grouping); the zero value gives the production
	// defaults (exact for small live sets, greedy + local search beyond).
	// Its solo cost prices an application running alone at every level,
	// the idle-slot edges of the SMT2 matching included.
	Grouping grouping.Options
	// Cache configures the interference-prediction memo layer
	// (internal/predcache) behind the policy's Invert and PairDegradation
	// evaluations. The zero value enables exact-key caching, which is
	// bit-identical to uncached evaluation by construction; set
	// Cache.Disabled to evaluate the model directly every quantum.
	Cache predcache.Options
	// Name overrides the policy name in experiment output.
	Name string
}

// Policy is the SYNPA thread-to-core allocation policy (§IV-B). Every
// quantum it estimates each application's ST behaviour by inverting the
// interference model on the previous quantum's PMU samples, predicts the
// degradation of every candidate pair with the forward model, and solves a
// minimum-weight perfect matching to pick the most synergistic pairing (a
// minimum-cost set partition above two threads per core).
//
// A Policy is read-mostly after construction; every mutable decision-time
// structure lives in an Arena (see arena.go). Place serves the classic
// single-threaded machine.Policy surface through the policy's default
// arena; concurrent callers hold their own arenas and call PlaceR.
type Policy struct {
	model *Model
	opt   PolicyOptions

	// The memoized model evaluations (read-only closures over model+opt).
	invertFn predcache.InvertFn
	pairFn   predcache.PairFn

	// shared is the optional concurrent memo behind every arena; nil
	// means each arena owns private caches (the classic configuration).
	shared *predcache.Shared
	// def is the default arena behind the non-reentrant Place surface.
	def Arena
}

var _ machine.Policy = (*Policy)(nil)

// NewPolicy builds a SYNPA policy around a trained model.
func NewPolicy(m *Model, opt PolicyOptions) (*Policy, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if opt.Extract == nil {
		opt.Extract = ThreeCategoryFractions
	}
	if opt.Inversion.MaxOuter == 0 {
		opt.Inversion = DefaultInversion()
	}
	switch {
	case opt.Smoothing == 0:
		opt.Smoothing = 0.5
	case opt.Smoothing < 0:
		opt.Smoothing = 0
	case opt.Smoothing >= 1:
		return nil, fmt.Errorf("core: smoothing %v must be below 1", opt.Smoothing)
	}
	switch {
	case opt.Hysteresis == 0:
		// Phase transitions of the phase-flipping applications move the
		// predicted total degradation by >3 %, while the spread between
		// near-equivalent complementary pairings is ~0.5 %; the default
		// threshold sits between the two.
		opt.Hysteresis = 0.015
	case opt.Hysteresis < 0:
		opt.Hysteresis = 0
	case opt.Hysteresis >= 1:
		return nil, fmt.Errorf("core: hysteresis %v must be below 1", opt.Hysteresis)
	}
	p := &Policy{model: m, opt: opt}
	p.invertFn = func(a, b []float64) ([]float64, []float64, bool) {
		return p.model.Invert(a, b, p.opt.Inversion)
	}
	p.pairFn = p.model.PairDegradation
	p.initArena(&p.def)
	return p, nil
}

// MustPolicy is NewPolicy that panics on error, for experiment wiring where
// the model is known valid.
func MustPolicy(m *Model, opt PolicyOptions) *Policy {
	p, err := NewPolicy(m, opt)
	if err != nil {
		panic(err)
	}
	return p
}

// Name identifies the policy configuration.
func (p *Policy) Name() string {
	if p.opt.Name != "" {
		return p.opt.Name
	}
	return "SYNPA"
}

// Model exposes the policy's interference model.
func (p *Policy) Model() *Model { return p.model }

// LastSTEstimates returns the ST category estimates computed for the most
// recent placement decision (per application) through the default arena,
// or nil before any. The rows are backed by a double buffer the arena
// reuses: they stay valid until the next Place call; copy them to retain
// longer.
func (p *Policy) LastSTEstimates() [][]float64 { return p.def.lastST }

// CacheStats returns the interference-prediction memo layer's traffic
// counters for the default arena's inversion and pair-degradation caches
// (its handle-local counts when a shared cache is installed).
func (p *Policy) CacheStats() (invert, pair predcache.Stats) {
	return p.def.CacheStats()
}

// Place implements machine.Policy: PlaceR through the policy's default
// arena — the single-threaded surface every simulator engine uses.
func (p *Policy) Place(st *machine.QuantumState) machine.Placement {
	return p.PlaceR(&p.def, st)
}

// PlaceR is the reentrant placement decision: all mutable state lives in
// the caller's arena, so any number of goroutines may call PlaceR on one
// policy concurrently as long as each holds its own Arena. It runs the
// paper's three-step pipeline at every SMT level: invert the model on each
// core's previous co-runner group (Step 1), predict every pair's
// degradation (Step 2), and choose the co-runner groups (Step 3) — blossom
// matching at SMT2, the weighted set partition of the follow-up policies
// at every other level (grouped.go).
func (p *Policy) PlaceR(a *Arena, st *machine.QuantumState) machine.Placement {
	if st.Samples == nil || st.Prev == nil {
		return arrivalOrderPlacement(st.NumApps, st.NumCores)
	}
	n, level := st.NumApps, st.ThreadsPerCore()
	solo := p.opt.Grouping.ResolvedSoloCost()

	// Step 1: estimate each application's ST category vector. The estimate
	// matrix is double-buffered across quanta and inversions are memoized
	// (internal/predcache): a cache hit implies bit-identical inputs, so
	// the copied result is bit-identical to a fresh inversion.
	a.prevGroups = st.Prev.PairsOf(st.NumCores, a.prevGroups)
	prev := a.prevGroups
	est := p.estimate(a, st, prev)
	p.smoothAndRemember(a, st, est)

	// Step 2: predict the degradation of every candidate pair. At SMT2 the
	// matrix is padded with virtual idle slots to 2·NumCores vertices so
	// the matching is always perfect: a real application paired with an
	// idle slot runs alone (the solo cost), two idle slots cost nothing.
	// The matrix is reused across quanta and predictions are memoized.
	total := n
	if level == 2 {
		total = 2 * st.NumCores
	}
	w := a.wMatrix(total)
	for i := 0; i < total; i++ {
		for j := i + 1; j < total; j++ {
			var cost float64
			switch {
			case i < n && j < n:
				cost = a.memo.Pair(est[i], est[j], p.pairFn)
			case i < n || j < n:
				cost = solo
			}
			if math.IsNaN(cost) || math.IsInf(cost, 0) {
				cost = 1e6
			}
			w[i][j], w[j][i] = cost, cost
		}
	}

	// Step 3: select the most synergistic co-runner groups.
	groups, cost, err := p.group(a, w, n, st.NumCores, level, solo)
	if err != nil {
		// Neither solver can fail on a validated live set; if one somehow
		// does, keep the previous placement rather than crash the manager
		// (only if every app already has a core — under dynamic occupancy
		// a fresh arrival does not).
		if fullyPlaced(st.Prev, n, st.NumCores) {
			return st.Prev.Clone()
		}
		return arrivalOrderPlacement(n, st.NumCores)
	}

	// Hysteresis: only migrate when the predicted gain is material,
	// pricing the previous grouping under the same matrix and solo cost.
	if p.opt.Hysteresis > 0 && fullyPlaced(st.Prev, n, st.NumCores) {
		prevCost := grouping.PartitionCost(w, prev, solo)
		if prevCost-cost < p.opt.Hysteresis*prevCost {
			return st.Prev.Clone()
		}
	}

	return placeGroups(groups, n, st.NumCores, st.Prev)
}

// smoothAndRemember applies the identity-aware exponential smoothing to the
// fresh ST estimates and records them (with their stable identities) in the
// arena for the next quantum.
func (p *Policy) smoothAndRemember(a *Arena, st *machine.QuantumState, est [][]float64) {
	if s := p.opt.Smoothing; s > 0 && a.lastST != nil {
		for i := range est {
			prev := a.prevEstimate(appID(st, i))
			if prev == nil || len(prev) != len(est[i]) {
				continue
			}
			for k := range est[i] {
				est[i][k] = (1-s)*est[i][k] + s*prev[k]
			}
		}
	}
	a.lastST = est
	a.estCur = 1 - a.estCur // est came from the other half of the double buffer
	a.lastIDs = a.lastIDs[:0]
	for i := range est {
		a.lastIDs = append(a.lastIDs, appID(st, i))
	}
}

// appID resolves application i's stable identity: the runner hands the
// live set's identities in AppIDs, and a hand-built state without them
// uses positions.
func appID(st *machine.QuantumState, i int) int {
	if st.AppIDs != nil && i < len(st.AppIDs) {
		return st.AppIDs[i]
	}
	return i
}

// fullyPlaced reports whether p gives each of the numApps applications a
// real core — i.e. the placement is reusable as-is for the next quantum.
func fullyPlaced(p machine.Placement, numApps, numCores int) bool {
	for _, c := range p {
		if c < 0 || c >= numCores {
			return false
		}
	}
	return numApps > 0 && len(p) == numApps
}

// match dispatches to the configured matcher on the idle-padded graph w,
// whose first n vertices are the real applications, accruing the solver
// time to the perfstat matching phase when collection is on. The default
// solver runs through the arena's reusable workspace — identical
// matchings, amortised solver memory.
func (p *Policy) match(a *Arena, w [][]float64, n int) ([]int, error) {
	t0 := perfstat.PhaseClock()
	defer perfstat.PhaseAdd(perfstat.PhaseMatching, t0)
	switch p.opt.Matcher {
	case MatcherBruteForce:
		mate, _, err := matching.BruteForceMinWeightPerfect(w)
		return mate, err
	case MatcherGreedy:
		return greedyMatch(w), nil
	default:
		// PlaceR pads the weight matrix to NumCores*2 vertices with virtual
		// idle slots (the solo cost against real apps), so one app can pair
		// with an idle slot to run solo. MinWeightPaddedMatching solves that
		// graph by exact subset DP when it is small and its optimum unique,
		// and by blossom otherwise — the same grouping either way.
		// The whole matching is memoized by the matrix's bit pattern and n:
		// hysteresis holds co-runner sets (and with them the pair-memoized
		// weight matrices) stable for long stretches, so steady state
		// answers the solve with a hash lookup.
		return a.memo.Match(w, n, func(w [][]float64, n int) ([]int, error) {
			mate, _, err := a.mws.MinWeightPaddedMatching(w, n)
			return mate, err
		})
	}
}

// greedyMatch repeatedly pairs the lightest remaining edge.
func greedyMatch(w [][]float64) []int {
	n := len(w)
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	for {
		best := math.Inf(1)
		bi, bj := -1, -1
		for i := 0; i < n; i++ {
			if mate[i] >= 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if mate[j] < 0 && w[i][j] < best {
					best, bi, bj = w[i][j], i, j
				}
			}
		}
		if bi < 0 {
			return mate
		}
		mate[bi], mate[bj] = bj, bi
	}
}

// arrivalOrderPlacement reproduces the initial assignment the paper
// describes for Linux (§VI-C): application k and k+cores share core k.
func arrivalOrderPlacement(numApps, numCores int) machine.Placement {
	p := make(machine.Placement, numApps)
	for i := range p {
		p[i] = i % numCores
	}
	return p
}
