package matching

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"synpa/internal/xrand"
)

// paddedGraph builds the idle-padded graph of SYNPA's Step 3: nv vertices,
// the first n applications priced by cell(i, j), every application–idle
// edge costing solo and every idle–idle edge costing 0.
func paddedGraph(nv, n int, solo float64, cell func(i, j int) float64) [][]float64 {
	w := make([][]float64, nv)
	for i := range w {
		w[i] = make([]float64, nv)
	}
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			var v float64
			switch {
			case j < n:
				v = cell(i, j)
			case i < n:
				v = solo
			}
			w[i][j], w[j][i] = v, v
		}
	}
	return w
}

// realGrouping maps each application to its application partner, or -1
// when it is matched to an idle slot: the part of a matching a placement
// reads.
func realGrouping(mate []int, n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = mate[i]
		if g[i] >= n {
			g[i] = -1
		}
	}
	return g
}

// checkPadded asserts the subset DP's contract on one graph: the
// long-lived workspace ws answers or defers exactly as a fresh one does,
// and when the DP answers, its matching is perfect and carries blossom's
// application grouping and total bit for bit. It reports whether the DP
// answered.
func checkPadded(t *testing.T, ws *Workspace, w [][]float64, n int) bool {
	t.Helper()
	mate, ok := (*Workspace)(nil).paddedDP(w, n)
	if reused, rok := ws.paddedDP(w, n); rok != ok || !slices.Equal(reused, mate) {
		t.Fatalf("n=%d: reused workspace answered %v (%v), a fresh one %v (%v)", n, reused, rok, mate, ok)
	}
	if !ok {
		return false
	}
	assertPerfect(t, mate)
	want, wantTotal, err := MinWeightPerfectMatching(w)
	if err != nil {
		t.Fatalf("DP answered a matrix blossom rejects (%v): %v", err, w)
	}
	got, total, err := ws.MinWeightPaddedMatching(w, n)
	if err != nil || !slices.Equal(got, mate) {
		t.Fatalf("MinWeightPaddedMatching = %v, %v; DP answered %v", got, err, mate)
	}
	if g, b := realGrouping(mate, n), realGrouping(want, n); !slices.Equal(g, b) || total != wantTotal {
		t.Fatalf("n=%d: DP grouping %v (total %v), blossom %v (total %v)\nw=%v", n, g, total, b, wantTotal, w)
	}
	return true
}

// TestPaddedMatchingAgreesWithBlossom drives the subset DP over random
// idle-padded graphs of 2–12 vertices at every application count, with
// continuous weights and weights drawn from one to three levels (so exact
// ties occur), and solo costs of 1 and random. Whenever the DP answers it
// must agree with blossom; both the answered and the deferred branch must
// occur.
func TestPaddedMatchingAgreesWithBlossom(t *testing.T) {
	rng := xrand.New(18)
	rounds := 600
	if testing.Short() {
		rounds = 60
	}
	answered, deferred := 0, 0
	var ws Workspace
	for r := 0; r < rounds; r++ {
		for nv := 2; nv <= 12; nv += 2 {
			for n := 0; n <= nv; n++ {
				levels := rng.Intn(4) // 0: continuous
				cell := func(i, j int) float64 {
					if levels == 0 {
						return 0.5 + 3*rng.Float64()
					}
					return 1 + 0.25*float64(rng.Intn(levels))
				}
				solo := 1.0
				if r%2 == 1 {
					solo = 0.5 + 2*rng.Float64()
				}
				if checkPadded(t, &ws, paddedGraph(nv, n, solo, cell), n) {
					answered++
				} else {
					deferred++
				}
			}
		}
	}
	if answered == 0 || deferred == 0 {
		t.Fatalf("answered %d, deferred %d: both branches must occur", answered, deferred)
	}
	t.Logf("answered %d, deferred %d", answered, deferred)
}

// TestPaddedMatchingDefers pins the cases the DP must leave to blossom.
func TestPaddedMatchingDefers(t *testing.T) {
	one := func(int, int) float64 { return 1 }
	asym := paddedGraph(4, 4, 1, func(i, j int) float64 { return float64(i + j) })
	asym[1][0] = math.Nextafter(asym[0][1], 2) // blossom tolerates this
	skewed := paddedGraph(6, 3, 1, func(i, j int) float64 { return float64(i + j) })
	skewed[0][4], skewed[4][0] = 1.5, 1.5 // idle slots not interchangeable
	for _, c := range []struct {
		name string
		w    [][]float64
		n    int
	}{
		{"tie", paddedGraph(4, 4, 1, one), 4},
		{"too large", paddedGraph(maxPaddedVertices+2, 3, 1, func(i, j int) float64 { return float64(i*7 + j) }), 3},
		{"odd", make([][]float64, 3), 3},
		{"empty", nil, 0},
		{"ragged", [][]float64{{0, 1}, {1}}, 2},
		{"not finite", paddedGraph(4, 4, 1, func(int, int) float64 { return math.NaN() }), 4},
		{"n out of range", paddedGraph(4, 4, 1, one), 5},
		{"asymmetric", asym, 4},
		{"idle slots differ", skewed, 3},
	} {
		if _, ok := (*Workspace)(nil).paddedDP(c.w, c.n); ok {
			t.Errorf("%s: DP answered", c.name)
		}
	}
	// The deferred call returns exactly what blossom returns, error included.
	for _, w := range [][][]float64{make([][]float64, 3), {{0, 1}, {1}}, asym} {
		mate, total, err := MinWeightPaddedMatching(w, len(w))
		wm, wt, werr := MinWeightPerfectMatching(w)
		if !slices.Equal(mate, wm) || total != wt || err != werr {
			t.Errorf("deferred %v, %v, %v; blossom %v, %v, %v", mate, total, err, wm, wt, werr)
		}
	}
}

// FuzzPaddedMatching checks the DP against blossom on fuzzed idle-padded
// graphs: cells are bytes over 16, so small alphabets give exact ties.
// Every input also runs through one workspace that lives across inputs,
// so its tables grow and are reused for smaller graphs.
func FuzzPaddedMatching(f *testing.F) {
	f.Add(uint8(8), uint8(5), 1.0, []byte{16, 20, 24, 28, 32, 36, 40, 44, 48, 52})
	f.Add(uint8(8), uint8(8), 1.0, []byte{16, 16, 32})
	f.Add(uint8(10), uint8(7), 1.25, []byte{1, 2, 3})
	var ws Workspace
	f.Fuzz(func(t *testing.T, nv, n uint8, solo float64, cells []byte) {
		size := int(nv % (maxPaddedVertices + 3))
		apps := int(n) % (size + 1)
		k := 0
		w := paddedGraph(size, apps, solo, func(i, j int) float64 {
			if len(cells) == 0 {
				return 1
			}
			k++
			return float64(cells[(k-1)%len(cells)]) / 16
		})
		checkPadded(t, &ws, w, apps)
	})
}

// TestPaddedWorkspaceReuse drives one workspace through graphs that grow,
// shrink and regrow its tables, with continuous and with tied weights.
// Every answer must be bit-equal to a nil-workspace solve: the same mate,
// total and error, and the same deferral to blossom.
func TestPaddedWorkspaceReuse(t *testing.T) {
	rng := xrand.New(27)
	var ws Workspace
	answered, deferred := 0, 0
	for round := 0; round < 40; round++ {
		for _, nv := range []int{2, 8, 10, 4, 10, 6} {
			n := rng.Intn(nv + 1)
			tied := round%2 == 1
			w := paddedGraph(nv, n, 1, func(int, int) float64 {
				if tied {
					return 1 + 0.25*float64(rng.Intn(2))
				}
				return 0.5 + 3*rng.Float64()
			})
			_, ok := ws.paddedDP(w, n)
			if _, fresh := (*Workspace)(nil).paddedDP(w, n); ok != fresh {
				t.Fatalf("round %d, %d vertices: reused workspace answered %v, a fresh one %v", round, nv, ok, fresh)
			}
			if ok {
				answered++
			} else {
				deferred++
			}
			mate, total, err := ws.MinWeightPaddedMatching(w, n)
			wantMate, wantTotal, wantErr := MinWeightPaddedMatching(w, n)
			if !slices.Equal(mate, wantMate) || total != wantTotal || err != wantErr {
				t.Fatalf("round %d, %d vertices: reused %v, %v, %v; fresh %v, %v, %v",
					round, nv, mate, total, err, wantMate, wantTotal, wantErr)
			}
		}
	}
	if answered == 0 || deferred == 0 {
		t.Fatalf("answered %d, deferred %d: both branches must occur", answered, deferred)
	}
}

// TestPaddedTablesSizedToGraph pins the DP's working memory: a fresh
// workspace holds 2ⁿᵛ cells after an nv-vertex solve, and a smaller graph
// reuses them without allocating.
func TestPaddedTablesSizedToGraph(t *testing.T) {
	rng := xrand.New(5)
	cell := func(int, int) float64 { return 0.5 + 3*rng.Float64() }
	var ws Workspace
	if _, ok := ws.paddedDP(paddedGraph(8, 6, 1, cell), 6); !ok {
		t.Fatal("the DP deferred on continuous weights")
	}
	cells := func() []int { return []int{len(ws.dp.gain), len(ws.dp.pick)} }
	if got := cells(); !slices.Equal(got, []int{256, 256}) {
		t.Fatalf("after an 8-vertex solve the tables hold %v cells, want 256 each", got)
	}
	gain := &ws.dp.gain[0]
	w6 := paddedGraph(6, 4, 1, cell)
	// The one allocation is the returned mate.
	if allocs := testing.AllocsPerRun(20, func() { ws.paddedDP(w6, 4) }); allocs != 1 {
		t.Fatalf("a 6-vertex solve after an 8-vertex one made %v allocations, want 1 (the mate)", allocs)
	}
	if got := cells(); !slices.Equal(got, []int{256, 256}) || &ws.dp.gain[0] != gain {
		t.Fatalf("a 6-vertex solve replaced the 8-vertex tables (%v cells)", got)
	}
}

// BenchmarkPaddedMatching times blossom against the subset DP on the
// idle-padded graphs SMT2 machines of four and five cores produce, fully
// and partly occupied, and the DP on a warm and on a cold workspace.
// Weights are continuous, so the DP never defers.
func BenchmarkPaddedMatching(b *testing.B) {
	for _, nv := range []int{8, 10} {
		for _, occ := range []struct {
			name string
			n    int
		}{{"full", nv}, {"partial", nv - 3}} {
			rng := xrand.New(uint64(nv*100 + occ.n))
			w := paddedGraph(nv, occ.n, 1, func(int, int) float64 { return 1.5 + rng.Float64() })
			var ws Workspace
			if _, ok := ws.paddedDP(w, occ.n); !ok {
				b.Fatal("the DP deferred on continuous weights")
			}
			solvers := []struct {
				name  string
				solve func() ([]int, float64, error)
			}{
				{"blossom", func() ([]int, float64, error) { return ws.MinWeightPerfectMatching(w) }},
				{"dp", func() ([]int, float64, error) { return ws.MinWeightPaddedMatching(w, occ.n) }},
				// A cold workspace per call: B/op is the tables' 10 bytes
				// per vertex mask plus the returned mate.
				{"dp-cold", func() ([]int, float64, error) {
					var cold Workspace
					return cold.MinWeightPaddedMatching(w, occ.n)
				}},
			}
			for _, s := range solvers {
				b.Run(fmt.Sprintf("v=%d/%s/%s", nv, occ.name, s.name), func(b *testing.B) {
					b.ReportAllocs()
					for b.Loop() {
						if _, _, err := s.solve(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
