package matching

import (
	"reflect"
	"testing"

	"synpa/internal/xrand"
)

// randMatrix builds a symmetric weight matrix with deterministic contents.
func randMatrix(rng *xrand.RNG, n int) [][]float64 {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Float64() * 10
			w[i][j], w[j][i] = v, v
		}
	}
	return w
}

// TestWorkspaceReuseBitIdentical drives one workspace through a size-varying
// sequence of matchings (grow, shrink, regrow) and checks every result
// against a fresh per-call solve: a workspace's scratch and the pooled
// solvers it borrows must never change a matching, only the allocation
// count.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	rng := xrand.New(7)
	var ws Workspace
	for round := 0; round < 40; round++ {
		n := []int{2, 8, 6, 12, 4, 8, 16, 10}[round%8]
		w := randMatrix(rng, n)
		gotMate, gotTotal, gotErr := ws.MinWeightPerfectMatching(w)
		wantMate, wantTotal, wantErr := MinWeightPerfectMatching(w)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("round %d (n=%d): errs %v / %v", round, n, gotErr, wantErr)
		}
		if !reflect.DeepEqual(gotMate, wantMate) || gotTotal != wantTotal {
			t.Fatalf("round %d (n=%d): workspace diverged\n got %v (%v)\nwant %v (%v)",
				round, n, gotMate, gotTotal, wantMate, wantTotal)
		}
	}
}

// TestWorkspacePerfectReuse covers the even-count entry point directly,
// including the error paths leaving the workspace reusable.
func TestWorkspacePerfectReuse(t *testing.T) {
	var ws Workspace
	if _, _, err := ws.MinWeightPerfectMatching(randMatrix(xrand.New(1), 5)); err != ErrOddVertices {
		t.Fatalf("odd count: err = %v, want ErrOddVertices", err)
	}
	rng := xrand.New(9)
	for _, n := range []int{6, 10, 4, 10} {
		w := randMatrix(rng, n)
		got, gt, err := ws.MinWeightPerfectMatching(w)
		if err != nil {
			t.Fatal(err)
		}
		want, wt, err := MinWeightPerfectMatching(w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || gt != wt {
			t.Fatalf("n=%d: workspace perfect matching diverged", n)
		}
	}
}

// TestRecycledSolverBitIdentical hands one solver through a size-varying
// sequence of runs (grow, shrink, regrow), as the solver pool hands solvers
// from workspace to workspace, and checks every matching against a fresh
// solver's. It drives init directly, so it does not depend on which
// solvers sync.Pool keeps.
func TestRecycledSolverBitIdentical(t *testing.T) {
	rng := xrand.New(11)
	run := func(b *blossomSolver, n int, iw [][]int64) []int {
		b.init(n, iw)
		for b.matchingRound() {
		}
		return append([]int(nil), b.match[1:n+1]...)
	}
	recycled := newSolverAlloc(16)
	for round, n := range []int{16, 4, 12, 2, 16, 8, 10} {
		w := randMatrix(rng, n)
		iw := (*Workspace)(nil).intMatrix(n)
		for i := range iw {
			for j := range iw[i] {
				iw[i][j] = int64(w[i][j]*weightScale) + 1
			}
		}
		got := run(recycled, n, iw)
		want := run(newSolverAlloc(n), n, iw)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (n=%d): recycled solver matched %v, fresh %v", round, n, got, want)
		}
	}
}
