// Package grouping solves the thread-grouping step that SMT levels above 2
// require: partition n applications into at most maxGroups groups (cores) of
// size at most L (the SMT level), minimising the summed intra-group
// interference cost.
//
// At SMT2 the per-quantum allocation step is a minimum-weight perfect
// matching (paper §IV-B Step 3, internal/matching); at SMT3/SMT4 it becomes
// a weighted set-partition problem, the formulation of the paper's follow-up
// ("A New Family of Thread to Core Allocation Policies for an SMT ARM
// Processor", arXiv:2507.00855): a group's cost is the sum of the pairwise
// predicted degradations of its members, so the pairwise interference model
// keeps driving the decision while co-schedules grow beyond pairs.
//
// Cost model. For a symmetric n×n matrix w of pairwise costs, a group g
// costs
//
//	cost(g) = DefaultSoloCost     if |g| == 1  (an app alone runs at ST speed)
//	cost(g) = Σ_{i<j ∈ g} w[i][j] otherwise
//
// and a partition costs the sum over its groups. With L = 2 this is the
// objective of minimum-weight perfect matching on the idle-padded graph;
// the SYNPA policy builds that graph itself at SMT2 and solves it with
// matching.MinWeightPaddedMatching, and calls Partition at every other
// level. Partition solves L = 2 with the same solvers as every L above it,
// which the tests check against the padded matching.
//
// Solvers. Three deterministic solvers sit behind Partition:
//
//   - an exact depth-first partition search (search.go), which places the
//     apps in index order into open groups or new ones, prunes on valid
//     lower bounds and answers whenever its optimum is clearly unique;
//   - an exact subset dynamic program over group bitmasks, O(n · 2ⁿ ·
//     C(n, L−1)) time, which answers when the search finds a near-tie, so
//     its tie-breaking decides every tied instance, and which is the
//     search's test oracle — the two return the same groups and a
//     bit-equal cost whenever the search answers;
//   - a greedy seeding plus steepest-descent local search (single-app moves
//     and pairwise swaps) for larger n, whose cost the property tests bound
//     from below by the exact optimum.
package grouping

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// DefaultSoloCost is the cost of a single-application group: the app runs at
// its single-threaded speed, normalised degradation 1 — the same constant
// the SYNPA policy assigns to a real-app/idle-slot pairing.
const DefaultSoloCost = 1.0

// DefaultMaxExactN is the largest n SolverAuto hands to the exact solvers.
// BenchmarkPartition measured them on continuous random costs on a 2-CPU
// x86-64 host (time per call, allocations per call):
//
//	apps, machine     search          subset DP         greedy
//	 8, 2 × SMT4       3.1 µs, 3       111 µs, 13        3.1 µs, 9
//	12, 3 × SMT4       186 µs, 3       7.4 ms, 17        9.8 µs, 12
//	12, 4 × SMT3       289 µs, 3       5.2 ms, 20        3.7 µs, 15
//	 9, 6 × SMT3       7.2 µs, 3       561 µs, 18        5.0 µs, 13
//	10, 4 × SMT4       109 µs, 3       1.6 ms, 18        7.9 µs, 14
//	16, 4 × SMT4       15.7 ms, 3      397 ms, 20        12 µs, 15
//
// The search is 15–78× faster than the DP at every shape, but at 16 apps
// one decision still takes 16 ms, over a thousand times greedy's, and
// raising the ceiling would change placements above 12 apps. So it stays
// at 12.
const DefaultMaxExactN = 12

// maxExactHard bounds the exact solvers outright: beyond 16 vertices the
// DP's mask tables, which the search falls back to on ties, stop fitting in
// reasonable memory.
const maxExactHard = 16

// Errors returned by Partition.
var (
	// ErrInfeasible marks an instance with more applications than
	// maxGroups·level hardware threads.
	ErrInfeasible = errors.New("grouping: more applications than hardware threads")
	// ErrTooLarge marks an instance explicitly requesting the exact solver
	// beyond its hard size limit.
	ErrTooLarge = fmt.Errorf("grouping: exact solver limited to %d applications", maxExactHard)
)

// Solver selects the partition algorithm.
type Solver int

const (
	// SolverAuto uses the exact solvers (the search, the DP on ties) up to
	// DefaultMaxExactN applications and the greedy + local-search solver
	// beyond.
	SolverAuto Solver = iota
	// SolverExact forces the exact solvers: the search, and the subset DP
	// when the search finds a near-tie.
	SolverExact
	// SolverGreedy forces the greedy + local-search solver.
	SolverGreedy
)

// String names the solver for experiment output.
func (s Solver) String() string {
	switch s {
	case SolverAuto:
		return "auto"
	case SolverExact:
		return "exact"
	case SolverGreedy:
		return "greedy"
	}
	return fmt.Sprintf("Solver(%d)", int(s))
}

// Options tune Partition; the zero value gives the production defaults.
// A one-application group always costs DefaultSoloCost, so callers pricing
// other partitions against a Result's Cost (the policy's hysteresis) use
// that constant too.
type Options struct {
	// Solver selects the algorithm (default SolverAuto).
	Solver Solver
}

// Result is one partition.
type Result struct {
	// Groups holds the partition in canonical form: members ascending
	// within each group, groups ordered by their smallest member.
	Groups [][]int
	// Cost is the partition cost under the canonical summation order
	// (PartitionCost), independent of the solver that produced it.
	Cost float64
	// Solver names the algorithm that produced the partition: "search"
	// (the partition search), "exact" (the subset DP, and the forced
	// partitions of L = 1 and n = 0) or "greedy".
	Solver string
}

// Partition computes a minimum-cost partition of the n applications behind
// the symmetric cost matrix w into at most maxGroups groups of at most
// level members each. It is deterministic: equal inputs give equal outputs.
func Partition(w [][]float64, maxGroups, level int, opt Options) (*Result, error) {
	return (*Workspace)(nil).Partition(w, maxGroups, level, opt)
}

// Partition is the package-level Partition run through the workspace's
// reusable search memory. Its results are identical; only the allocation
// count differs.
func (ws *Workspace) Partition(w [][]float64, maxGroups, level int, opt Options) (*Result, error) {
	return ws.partition(w, maxGroups, level, DefaultSoloCost, opt.Solver)
}

// partition is Partition with the solo cost as a parameter, so the tests
// can vary it.
func (ws *Workspace) partition(w [][]float64, maxGroups, level int, solo float64, solver Solver) (*Result, error) {
	n := len(w)
	if err := checkMatrix(w); err != nil {
		return nil, err
	}
	if maxGroups < 1 || level < 1 {
		return nil, fmt.Errorf("grouping: need maxGroups >= 1 and level >= 1 (got %d, %d)", maxGroups, level)
	}
	if n > maxGroups*level {
		return nil, fmt.Errorf("%w: %d applications, %d groups of <= %d", ErrInfeasible, n, maxGroups, level)
	}
	if n == 0 {
		return &Result{Groups: nil, Cost: 0, Solver: "exact"}, nil
	}

	if level == 1 {
		// Only singletons are feasible; the partition is forced.
		groups := make([][]int, n)
		for i := range groups {
			groups[i] = []int{i}
		}
		return finish(w, groups, solo, "exact"), nil
	}

	switch solver {
	case SolverExact:
		if n > maxExactHard {
			return nil, ErrTooLarge
		}
		return ws.exact(w, maxGroups, level, solo), nil
	case SolverGreedy:
		return solveGreedy(w, maxGroups, level, solo), nil
	default:
		if n <= DefaultMaxExactN {
			return ws.exact(w, maxGroups, level, solo), nil
		}
		return solveGreedy(w, maxGroups, level, solo), nil
	}
}

// CostOf returns one group's cost under w: soloCost for a singleton, the
// sum of intra-group pairwise costs (members visited in ascending index
// order) otherwise. An empty group costs nothing.
func CostOf(w [][]float64, group []int, soloCost float64) float64 {
	switch len(group) {
	case 0:
		return 0
	case 1:
		return soloCost
	}
	cost := 0.0
	for a := 0; a < len(group); a++ {
		for b := a + 1; b < len(group); b++ {
			cost += w[group[a]][group[b]]
		}
	}
	return cost
}

// PartitionCost sums CostOf over the groups in order — the canonical cost
// every solver reports, so costs from different solvers compare bit-exactly.
func PartitionCost(w [][]float64, groups [][]int, soloCost float64) float64 {
	cost := 0.0
	for _, g := range groups {
		cost += CostOf(w, g, soloCost)
	}
	return cost
}

// checkMatrix validates that w is square, symmetric and finite.
func checkMatrix(w [][]float64) error {
	n := len(w)
	for i := range w {
		if len(w[i]) != n {
			return fmt.Errorf("grouping: weight matrix row %d has %d entries for %d vertices", i, len(w[i]), n)
		}
		for j, v := range w[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("grouping: weight w[%d][%d] = %v is not finite", i, j, v)
			}
			if w[j][i] != v {
				return fmt.Errorf("grouping: weight matrix asymmetric at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// canonicalize sorts members within groups and groups by smallest member,
// dropping empties.
func canonicalize(groups [][]int) [][]int {
	out := groups[:0]
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		slices.Sort(g)
		out = append(out, g)
	}
	slices.SortFunc(out, func(a, b []int) int { return a[0] - b[0] })
	return out
}

// finish canonicalizes a partition and wraps it in a Result with the
// canonical cost.
func finish(w [][]float64, groups [][]int, soloCost float64, solver string) *Result {
	groups = canonicalize(groups)
	return &Result{Groups: groups, Cost: PartitionCost(w, groups, soloCost), Solver: solver}
}
