package grouping

import (
	"math"
	"reflect"
	"testing"

	"synpa/internal/matching"
	"synpa/internal/xrand"
)

// randMatrix builds a seeded symmetric cost matrix with entries in
// [2, 2+spread) — the magnitude of real pair-degradation sums.
func randMatrix(n int, seed uint64, spread float64) [][]float64 {
	rng := xrand.New(seed)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 2 + rng.Float64()*spread
			w[i][j], w[j][i] = v, v
		}
	}
	return w
}

// checkPartition asserts structural validity: every app in exactly one
// group, group sizes within level, group count within maxGroups, canonical
// ordering, and the reported cost matching PartitionCost.
func checkPartition(t *testing.T, res *Result, n, maxGroups, level int, w [][]float64) {
	t.Helper()
	if len(res.Groups) > maxGroups {
		t.Fatalf("%d groups exceed maxGroups %d", len(res.Groups), maxGroups)
	}
	seen := make([]bool, n)
	prevFirst := -1
	for _, g := range res.Groups {
		if len(g) == 0 || len(g) > level {
			t.Fatalf("group %v has bad size (level %d)", g, level)
		}
		if g[0] <= prevFirst {
			t.Fatalf("groups not ordered by first member: %v", res.Groups)
		}
		prevFirst = g[0]
		for k, a := range g {
			if a < 0 || a >= n {
				t.Fatalf("member %d out of range", a)
			}
			if k > 0 && g[k-1] >= a {
				t.Fatalf("group %v not ascending", g)
			}
			if seen[a] {
				t.Fatalf("app %d in two groups: %v", a, res.Groups)
			}
			seen[a] = true
		}
	}
	for a, ok := range seen {
		if !ok {
			t.Fatalf("app %d unassigned: %v", a, res.Groups)
		}
	}
	if want := PartitionCost(w, res.Groups, DefaultSoloCost); res.Cost != want {
		t.Fatalf("reported cost %v != canonical cost %v", res.Cost, want)
	}
}

// TestPartitionValidation pins the error paths.
func TestPartitionValidation(t *testing.T) {
	w := randMatrix(6, 1, 2)
	if _, err := Partition(w, 1, 4, Options{}); err == nil {
		t.Fatal("6 apps on 1x4 threads accepted")
	}
	if _, err := Partition(w, 0, 2, Options{}); err == nil {
		t.Fatal("maxGroups 0 accepted")
	}
	bad := randMatrix(4, 1, 2)
	bad[1][2] = bad[2][1] + 1
	if _, err := Partition(bad, 4, 2, Options{}); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
	nan := randMatrix(4, 1, 2)
	nan[0][3] = math.NaN()
	nan[3][0] = math.NaN()
	if _, err := Partition(nan, 4, 2, Options{}); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if _, err := Partition(randMatrix(maxExactHard+1, 1, 2), maxExactHard+1, 4,
		Options{Solver: SolverExact}); err == nil {
		t.Fatal("oversized exact request accepted")
	}
}

// TestPartitionLevelOne pins the forced all-singleton partition.
func TestPartitionLevelOne(t *testing.T) {
	w := randMatrix(5, 3, 2)
	res, err := Partition(w, 5, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, 5, 5, 1, w)
	if res.Cost != 5*DefaultSoloCost {
		t.Fatalf("cost %v, want %v", res.Cost, 5*DefaultSoloCost)
	}
}

// TestGreedyVsExact is the cross-validation property test of the issue:
// on seeded random matrices up to n = 12, the greedy + local-search cost is
// never below the exact optimum, and stays within a sane factor of it.
func TestGreedyVsExact(t *testing.T) {
	const slack = 1e-9
	for n := 2; n <= 12; n++ {
		for _, level := range []int{2, 3, 4} {
			for seed := uint64(0); seed < 6; seed++ {
				maxGroups := (n + level - 1) / level
				if seed%2 == 1 {
					maxGroups = n // unconstrained group count
				}
				w := randMatrix(n, 1000*uint64(n)+seed, 2+float64(seed))
				exact, err := Partition(w, maxGroups, level, Options{Solver: SolverExact})
				if err != nil {
					t.Fatal(err)
				}
				greedy, err := Partition(w, maxGroups, level, Options{Solver: SolverGreedy})
				if err != nil {
					t.Fatal(err)
				}
				checkPartition(t, exact, n, maxGroups, level, w)
				checkPartition(t, greedy, n, maxGroups, level, w)
				if greedy.Cost < exact.Cost-slack {
					t.Fatalf("n=%d L=%d seed=%d: greedy cost %v below exact optimum %v",
						n, level, seed, greedy.Cost, exact.Cost)
				}
				if greedy.Cost > exact.Cost*1.5+slack {
					t.Errorf("n=%d L=%d seed=%d: greedy cost %v far above exact %v (groups %v vs %v)",
						n, level, seed, greedy.Cost, exact.Cost, greedy.Groups, exact.Groups)
				}
			}
		}
	}
}

// TestExactMatchesBlossomAtLevelTwo checks Partition at L = 2, where the
// search, the subset DP and greedy serve as at every other level, against
// the padded matching the SYNPA policy solves at SMT2: on 2–12 apps (up to
// DefaultMaxExactN, so the exact solvers answer) with the group count
// tight or unconstrained, both solver settings return the groups of
// matching.MinWeightPaddedMatching on the idle-padded graph this test
// builds, at its cost (within the matcher's 1e-6 weight quantisation).
func TestExactMatchesBlossomAtLevelTwo(t *testing.T) {
	const tol = 1e-4
	for n := 2; n <= DefaultMaxExactN; n++ {
		for seed := uint64(0); seed < 6; seed++ {
			maxGroups := (n + 1) / 2
			if seed%2 == 1 {
				maxGroups = n
			}
			w := randMatrix(n, 77*uint64(n)+seed, 3)
			want, wantCost := paddedMatchingGroups(t, w, maxGroups)
			for _, opt := range []Options{{Solver: SolverExact}, {}} {
				res, err := Partition(w, maxGroups, 2, opt)
				if err != nil {
					t.Fatal(err)
				}
				if res.Solver != "search" && res.Solver != "exact" {
					t.Fatalf("n=%d: L=2 %v solver = %q, want the search or the DP", n, opt.Solver, res.Solver)
				}
				checkPartition(t, res, n, maxGroups, 2, w)
				if !reflect.DeepEqual(res.Groups, want) || math.Abs(res.Cost-wantCost) > tol {
					t.Fatalf("n=%d seed=%d %v: groups %v (cost %v), padded matching %v (cost %v)",
						n, seed, opt.Solver, res.Groups, res.Cost, want, wantCost)
				}
			}
		}
	}
}

// paddedMatchingGroups solves w's L = 2 partition the way the SYNPA policy
// does at SMT2: a minimum-weight perfect matching on 2·maxGroups vertices,
// where real pairs cost w, a real app matched to an idle slot runs alone at
// DefaultSoloCost and two idle slots cost nothing. It returns the real
// groups in canonical order and their cost.
func paddedMatchingGroups(t *testing.T, w [][]float64, maxGroups int) ([][]int, float64) {
	t.Helper()
	n, total := len(w), 2*maxGroups
	p := make([][]float64, total)
	for i := range p {
		p[i] = make([]float64, total)
	}
	for i := 0; i < total; i++ {
		for j := i + 1; j < total; j++ {
			var cost float64
			switch {
			case i < n && j < n:
				cost = w[i][j]
			case i < n || j < n:
				cost = DefaultSoloCost
			}
			p[i][j], p[j][i] = cost, cost
		}
	}
	mate, _, err := matching.MinWeightPaddedMatching(p, n)
	if err != nil {
		t.Fatal(err)
	}
	var groups [][]int
	for i := 0; i < n; i++ {
		switch m := mate[i]; {
		case m < 0 || m >= n:
			groups = append(groups, []int{i})
		case m > i:
			groups = append(groups, []int{i, m})
		}
	}
	return groups, PartitionCost(w, groups, DefaultSoloCost)
}

// TestPartitionDeterminism runs every solver twice on the same input and
// demands identical partitions.
// TestBlossomDelegationMatchesRawMatcher checks the level-2 partition
// against the raw blossom matcher on the idle-padded graph, the solver
// level 2 used to delegate to.
func TestBlossomDelegationMatchesRawMatcher(t *testing.T) {
	n, cores := 7, 4
	w := randMatrix(n, 5, 3)
	res, err := Partition(w, cores, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := 2 * cores
	p := make([][]float64, total)
	for i := range p {
		p[i] = make([]float64, total)
	}
	for i := 0; i < total; i++ {
		for j := i + 1; j < total; j++ {
			var cost float64
			switch {
			case i < n && j < n:
				cost = w[i][j]
			case i < n || j < n:
				cost = DefaultSoloCost
			}
			p[i][j], p[j][i] = cost, cost
		}
	}
	mate, _, err := matching.MinWeightPerfectMatching(p)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]int
	for i := 0; i < n; i++ {
		switch m := mate[i]; {
		case m < 0 || m >= n:
			want = append(want, []int{i})
		case m > i:
			want = append(want, []int{i, m})
		}
	}
	if !reflect.DeepEqual(res.Groups, want) {
		t.Fatalf("level-2 groups %v != raw matcher pairs %v", res.Groups, want)
	}
}

func TestPartitionDeterminism(t *testing.T) {
	w := randMatrix(10, 9, 4)
	for _, opt := range []Options{
		{Solver: SolverExact},
		{Solver: SolverGreedy},
		{}, // auto
	} {
		a, err := Partition(w, 3, 4, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Partition(w, 3, 4, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("solver %v nondeterministic: %v vs %v", opt.Solver, a.Groups, b.Groups)
		}
	}
}

// TestPartitionScarceCores pins the regime SMT4 exists for: more apps than
// 2·cores forces groups beyond pairs, and the solvers must fill them.
func TestPartitionScarceCores(t *testing.T) {
	w := randMatrix(8, 11, 2)
	res, err := Partition(w, 2, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, 8, 2, 4, w)
	if len(res.Groups) != 2 || len(res.Groups[0]) != 4 || len(res.Groups[1]) != 4 {
		t.Fatalf("8 apps on 2x4 threads must form two quads, got %v", res.Groups)
	}
}

// TestGreedyLargeN smoke-tests the greedy solver beyond the exact range.
func TestGreedyLargeN(t *testing.T) {
	n := 40
	w := randMatrix(n, 13, 3)
	res, err := Partition(w, 12, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != "greedy" {
		t.Fatalf("auto solver for n=40 = %q, want greedy", res.Solver)
	}
	checkPartition(t, res, n, 12, 4, w)
}
