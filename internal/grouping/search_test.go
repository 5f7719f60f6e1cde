package grouping

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"synpa/internal/xrand"
)

// levelMatrix builds a seeded symmetric cost matrix: continuous entries in
// [2, 4) when levels is 0, otherwise entries drawn from levels values
// 2, 2.5, … so that exact ties occur.
func levelMatrix(rng *xrand.RNG, n, levels int) [][]float64 {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 2 + 2*rng.Float64()
			if levels > 0 {
				v = 2 + 0.5*float64(rng.Intn(levels))
			}
			w[i][j], w[j][i] = v, v
		}
	}
	return w
}

// checkSearch asserts the search's contract on one instance: when it
// answers, its groups equal the subset DP's and its cost is bit-equal, and
// Partition returns that answer under both SolverExact and SolverAuto. It
// reports whether the search answered.
func checkSearch(t testing.TB, ws *Workspace, w [][]float64, maxGroups, level int, solo float64) bool {
	t.Helper()
	if !ws.s.run(w, maxGroups, level, solo) {
		return false
	}
	got := finish(w, ws.s.groups(), solo, "search")
	want := solveExact(w, maxGroups, level, solo)
	if !reflect.DeepEqual(got.Groups, want.Groups) || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		t.Fatalf("n=%d maxGroups=%d level=%d solo=%v: search %v (cost %v), DP %v (cost %v)\nw=%v",
			len(w), maxGroups, level, solo, got.Groups, got.Cost, want.Groups, want.Cost, w)
	}
	for _, solver := range []Solver{SolverExact, SolverAuto} {
		res, err := ws.partition(w, maxGroups, level, solo, solver)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := (*Workspace)(nil).partition(w, maxGroups, level, solo, solver)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, got) || !reflect.DeepEqual(fresh, got) {
			t.Fatalf("Partition(%v) = %+v through the workspace, %+v without; the search answered %+v",
				solver, res, fresh, got)
		}
	}
	return true
}

// TestSearchMatchesExactDP is the differential test of the partition
// search against the subset DP: 2–12 apps at levels 2, 3 and 4, every
// feasible group count, continuous weights and weights of one to three
// levels, with a solo cost below the pair weights or above them (the two
// alternate over the grid, so each weight kind meets both). On every
// instance the search answers, it must return the DP's groups and cost;
// both the answered and the deferred branch must occur. One workspace is
// reused throughout, so reuse is covered too.
func TestSearchMatchesExactDP(t *testing.T) {
	rng := xrand.New(22)
	var ws Workspace
	answered, deferred := 0, 0
	for n := 2; n <= 12; n++ {
		for _, level := range []int{2, 3, 4} {
			for maxGroups := (n + level - 1) / level; maxGroups <= n; maxGroups++ {
				for levels := 0; levels <= 3; levels++ {
					solo := []float64{1, 5}[(maxGroups+levels)%2]
					if checkSearch(t, &ws, levelMatrix(rng, n, levels), maxGroups, level, solo) {
						answered++
					} else {
						deferred++
					}
				}
			}
		}
	}
	if answered == 0 || deferred == 0 {
		t.Fatalf("answered %d, deferred %d: both branches must occur", answered, deferred)
	}
	t.Logf("answered %d, deferred %d", answered, deferred)
}

// TestSearchDefers pins the instances the search must leave to the subset
// DP: an exact tie, a runner-up inside the rounding margin, all-zero costs
// (a zero margin) and costs whose magnitude overflows. Partition then
// returns the DP's answer.
func TestSearchDefers(t *testing.T) {
	// Apps 3 and 4 cost 2 beside either triple {0,1,2} and {5,6,7}, so the
	// quads {0,1,2,3},{4,5,6,7} and {0,1,2,4},{3,5,6,7} tie at 24; every
	// other pair costs 3. Raising w[0][3] by 1e-12 leaves the second quad
	// pair the unique optimum, inside the margin.
	tied := make([][]float64, 8)
	for i := range tied {
		tied[i] = make([]float64, 8)
	}
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			v := 3.0
			switch {
			case i == 3 && j == 4:
			case i == 3 || i == 4 || j == 3 || j == 4, (i < 3) == (j < 3):
				v = 2
			}
			tied[i][j], tied[j][i] = v, v
		}
	}
	nearTie := make([][]float64, 8)
	for i := range nearTie {
		nearTie[i] = append([]float64(nil), tied[i]...)
	}
	nearTie[0][3] += 1e-12
	nearTie[3][0] = nearTie[0][3]
	zero := make([][]float64, 8)
	for i := range zero {
		zero[i] = make([]float64, 8)
	}
	for _, c := range []struct {
		name string
		w    [][]float64
		solo float64
	}{
		{"exact tie", tied, 1},
		{"runner-up inside the margin", nearTie, 1},
		{"all-pairs-equal", levelMatrix(xrand.New(1), 8, 1), 1},
		{"zero costs", zero, 0},
		{"overflowing solo cost", levelMatrix(xrand.New(3), 8, 0), math.MaxFloat64},
	} {
		var s search
		if s.run(c.w, 2, 4, c.solo) {
			t.Errorf("%s: the search answered", c.name)
		}
	}
	for _, w := range [][][]float64{tied, nearTie} {
		res, err := Partition(w, 2, 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := solveExact(w, 2, 4, DefaultSoloCost); res.Solver != "exact" || !reflect.DeepEqual(res, want) {
			t.Fatalf("Partition = %+v, DP = %+v", res, want)
		}
	}
	if res, _ := Partition(nearTie, 2, 4, Options{}); !reflect.DeepEqual(res.Groups, [][]int{{0, 1, 2, 4}, {3, 5, 6, 7}}) {
		t.Fatalf("near tie: groups %v, want the unique optimum", res.Groups)
	}
}

// TestSearchAllocations pins the search's allocations through a reused
// workspace at the smt4-suite shape: the Result, its groups and their
// backing array, against the DP's thirteen.
func TestSearchAllocations(t *testing.T) {
	w := levelMatrix(xrand.New(8), 8, 0)
	var ws Workspace
	var res *Result
	allocs := testing.AllocsPerRun(20, func() {
		res, _ = ws.Partition(w, 2, 4, Options{})
	})
	if res.Solver != "search" || allocs > 3 {
		t.Fatalf("solver %q, %v allocations per call; want the search and at most 3", res.Solver, allocs)
	}
}

// FuzzPartition checks the search against the subset DP on fuzzed
// instances of 1–10 apps at levels 2–5 and every feasible group count.
// Cells are signed bytes over 16, so weights may be negative and small
// alphabets give exact ties.
func FuzzPartition(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint8(0), 1.0, []byte{32, 40, 48, 56, 36, 44, 52, 60, 33})
	f.Add(uint8(9), uint8(0), uint8(3), 1.0, []byte{32, 40})
	f.Add(uint8(7), uint8(0), uint8(2), 0.5, []byte{200, 16, 3, 250, 40})
	var ws Workspace
	f.Fuzz(func(t *testing.T, n, level, groups uint8, solo float64, cells []byte) {
		size := 1 + int(n)%10
		lv := 2 + int(level)%4
		lo := (size + lv - 1) / lv
		maxGroups := lo + int(groups)%(size-lo+1)
		w := make([][]float64, size)
		for i := range w {
			w[i] = make([]float64, size)
		}
		k := 0
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				v := 2.0
				if len(cells) > 0 {
					v = float64(int8(cells[k%len(cells)])) / 16
					k++
				}
				w[i][j], w[j][i] = v, v
			}
		}
		checkSearch(t, &ws, w, maxGroups, lv, solo)
	})
}

// BenchmarkPartition times the partition search against the subset DP it
// defers to and the greedy solver, on continuous random costs (so the
// search never defers), at the shapes SMT3/SMT4 machines produce: full
// machines and sparse occupancy. The DefaultMaxExactN comment records the
// measured table.
func BenchmarkPartition(b *testing.B) {
	for _, c := range []struct{ n, cores, level int }{
		{8, 2, 4}, {12, 3, 4}, {12, 4, 3}, {9, 6, 3}, {10, 4, 4}, {16, 4, 4},
	} {
		w := levelMatrix(xrand.New(uint64(c.n*100+c.cores*10+c.level)), c.n, 0)
		var ws Workspace
		if res, err := ws.Partition(w, c.cores, c.level, Options{Solver: SolverExact}); err != nil || res.Solver != "search" {
			b.Fatalf("%+v: the search did not answer continuous weights (%v)", c, err)
		}
		solvers := []struct {
			name  string
			solve func() *Result
		}{
			{"search", func() *Result {
				res, _ := ws.Partition(w, c.cores, c.level, Options{Solver: SolverExact})
				return res
			}},
			{"dp", func() *Result { return solveExact(w, c.cores, c.level, DefaultSoloCost) }},
			{"greedy", func() *Result { return solveGreedy(w, c.cores, c.level, DefaultSoloCost) }},
		}
		for _, s := range solvers {
			b.Run(fmt.Sprintf("n=%d/%dxSMT%d/%s", c.n, c.cores, c.level, s.name), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					s.solve()
				}
			})
		}
	}
}
