package matching

import (
	"math"
	"testing"
	"testing/quick"

	"synpa/internal/xrand"
)

// randomWeights builds a symmetric matrix of weights in [lo, hi).
func randomWeights(rng *xrand.RNG, n int, lo, hi float64) [][]float64 {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := lo + rng.Float64()*(hi-lo)
			w[i][j] = v
			w[j][i] = v
		}
	}
	return w
}

func matchingWeight(w [][]float64, mate []int) float64 {
	total := 0.0
	for i, m := range mate {
		if m > i {
			total += w[i][m]
		}
	}
	return total
}

func assertPerfect(t *testing.T, mate []int) {
	t.Helper()
	for i, m := range mate {
		if m < 0 || m >= len(mate) || m == i {
			t.Fatalf("vertex %d matched to %d", i, m)
		}
		if mate[m] != i {
			t.Fatalf("matching not symmetric: mate[%d]=%d but mate[%d]=%d", i, m, m, mate[m])
		}
	}
}

func TestMinWeightTwoVertices(t *testing.T) {
	mate, total, err := MinWeightPerfectMatching([][]float64{{0, 3.5}, {3.5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if mate[0] != 1 || mate[1] != 0 {
		t.Fatalf("mate = %v", mate)
	}
	if math.Abs(total-3.5) > 1e-9 {
		t.Fatalf("total = %v, want 3.5", total)
	}
}

func TestMinWeightFourVerticesKnown(t *testing.T) {
	// Pairing (0,1)+(2,3) costs 1+1=2; (0,2)+(1,3) costs 10+10=20;
	// (0,3)+(1,2) costs 10+10=20.
	w := [][]float64{
		{0, 1, 10, 10},
		{1, 0, 10, 10},
		{10, 10, 0, 1},
		{10, 10, 1, 0},
	}
	mate, total, err := MinWeightPerfectMatching(w)
	if err != nil {
		t.Fatal(err)
	}
	assertPerfect(t, mate)
	if mate[0] != 1 || mate[2] != 3 {
		t.Fatalf("mate = %v, want pairs (0,1),(2,3)", mate)
	}
	if math.Abs(total-2) > 1e-9 {
		t.Fatalf("total = %v, want 2", total)
	}
}

func TestMinWeightForcedBlossomStructure(t *testing.T) {
	// A weight pattern where a greedy pairing is suboptimal and the
	// search must traverse odd cycles: 6 vertices with a "triangle trap".
	w := [][]float64{
		{0, 1, 9, 9, 9, 2},
		{1, 0, 1, 9, 9, 9},
		{9, 1, 0, 1, 9, 9},
		{9, 9, 1, 0, 1, 9},
		{9, 9, 9, 1, 0, 1},
		{2, 9, 9, 9, 1, 0},
	}
	mate, total, err := MinWeightPerfectMatching(w)
	if err != nil {
		t.Fatal(err)
	}
	assertPerfect(t, mate)
	_, bfTotal, err := BruteForceMinWeightPerfect(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-bfTotal) > 1e-6 {
		t.Fatalf("blossom total %v != brute force %v", total, bfTotal)
	}
}

func TestMinWeightMatchesBruteForceRandom(t *testing.T) {
	rng := xrand.New(4242)
	for trial := 0; trial < 200; trial++ {
		n := 2 * (1 + rng.Intn(6)) // 2..12 vertices
		w := randomWeights(rng, n, 1, 5)
		mate, total, err := MinWeightPerfectMatching(w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertPerfect(t, mate)
		if got := matchingWeight(w, mate); math.Abs(got-total) > 1e-6 {
			t.Fatalf("trial %d: reported total %v != recomputed %v", trial, total, got)
		}
		_, bfTotal, err := BruteForceMinWeightPerfect(w)
		if err != nil {
			t.Fatal(err)
		}
		if total > bfTotal+1e-5 {
			t.Fatalf("trial %d (n=%d): blossom %v worse than optimal %v", trial, n, total, bfTotal)
		}
		if total < bfTotal-1e-5 {
			t.Fatalf("trial %d (n=%d): blossom %v below optimal %v (impossible)", trial, n, total, bfTotal)
		}
	}
}

func TestMinWeightIntegerWeightsExact(t *testing.T) {
	// Integer weights exercise exact tie handling in the dual updates.
	rng := xrand.New(777)
	for trial := 0; trial < 100; trial++ {
		n := 2 * (1 + rng.Intn(5))
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := float64(1 + rng.Intn(4)) // many ties
				w[i][j], w[j][i] = v, v
			}
		}
		mate, total, err := MinWeightPerfectMatching(w)
		if err != nil {
			t.Fatal(err)
		}
		assertPerfect(t, mate)
		_, bfTotal, _ := BruteForceMinWeightPerfect(w)
		if math.Abs(total-bfTotal) > 1e-6 {
			t.Fatalf("trial %d (n=%d): %v vs optimal %v", trial, n, total, bfTotal)
		}
	}
}

func TestMinWeightSlowdownLikeWeights(t *testing.T) {
	// Weights in the range SYNPA actually produces: pair slowdown sums
	// around 2.0–4.5 with small differences.
	rng := xrand.New(31337)
	for trial := 0; trial < 100; trial++ {
		n := 8 // the paper's 8-application workloads
		w := randomWeights(rng, n, 2.0, 4.5)
		mate, total, err := MinWeightPerfectMatching(w)
		if err != nil {
			t.Fatal(err)
		}
		assertPerfect(t, mate)
		_, bfTotal, _ := BruteForceMinWeightPerfect(w)
		if math.Abs(total-bfTotal) > 1e-4 {
			t.Fatalf("trial %d: %v vs optimal %v", trial, total, bfTotal)
		}
	}
}

func TestMinWeightErrors(t *testing.T) {
	if _, _, err := MinWeightPerfectMatching(make([][]float64, 3)); err != ErrOddVertices {
		t.Fatalf("odd: %v", err)
	}
	if _, _, err := MinWeightPerfectMatching([][]float64{{0, 1}, {1}}); err != ErrNotSquare {
		t.Fatalf("not square: %v", err)
	}
	if _, _, err := MinWeightPerfectMatching([][]float64{{0, 1}, {2, 0}}); err != ErrNotSymmetric {
		t.Fatalf("asymmetric: %v", err)
	}
	nan := math.NaN()
	if _, _, err := MinWeightPerfectMatching([][]float64{{0, nan}, {nan, 0}}); err != ErrBadWeight {
		t.Fatalf("nan: %v", err)
	}
	mate, total, err := MinWeightPerfectMatching(nil)
	if err != nil || mate != nil || total != 0 {
		t.Fatalf("empty: %v %v %v", mate, total, err)
	}
}

func TestBruteForceErrors(t *testing.T) {
	if _, _, err := BruteForceMinWeightPerfect(make([][]float64, 3)); err != ErrOddVertices {
		t.Fatalf("odd: %v", err)
	}
	if _, _, err := BruteForceMinWeightPerfect([][]float64{{0, 1}, {1}}); err != ErrNotSquare {
		t.Fatalf("ragged: %v", err)
	}
	if m, tot, err := BruteForceMinWeightPerfect(nil); err != nil || m != nil || tot != 0 {
		t.Fatal("empty should succeed with nil")
	}
	// Rejected before any table is built: the rows are never read.
	if _, _, err := BruteForceMinWeightPerfect(make([][]float64, maxBruteForceVertices+2)); err != ErrTooLarge {
		t.Fatalf("too large: %v", err)
	}
}

func TestMatchingPropertyQuick(t *testing.T) {
	// Any random symmetric instance: blossom result is perfect and its
	// weight equals the subset-DP optimum.
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 * (1 + rng.Intn(5))
		w := randomWeights(rng, n, 0.5, 9.5)
		mate, total, err := MinWeightPerfectMatching(w)
		if err != nil {
			return false
		}
		for i, m := range mate {
			if m < 0 || mate[m] != i || m == i {
				return false
			}
		}
		_, bfTotal, err := BruteForceMinWeightPerfect(w)
		if err != nil {
			return false
		}
		return math.Abs(total-bfTotal) < 1e-5
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeInstancePerfectAndSane(t *testing.T) {
	// 56 vertices ≈ the full 28-core SMT2 ThunderX2 with every hardware
	// thread busy. Optimality is not brute-force checkable at this size;
	// verify perfection and that blossom beats a greedy matcher.
	rng := xrand.New(2024)
	n := 56
	w := randomWeights(rng, n, 1, 10)
	mate, total, err := MinWeightPerfectMatching(w)
	if err != nil {
		t.Fatal(err)
	}
	assertPerfect(t, mate)

	// Greedy: repeatedly take the globally lightest available edge.
	used := make([]bool, n)
	greedy := 0.0
	for k := 0; k < n/2; k++ {
		best, bi, bj := math.Inf(1), -1, -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !used[j] && w[i][j] < best {
					best, bi, bj = w[i][j], i, j
				}
			}
		}
		used[bi], used[bj] = true, true
		greedy += best
	}
	if total > greedy+1e-9 {
		t.Fatalf("blossom total %v worse than greedy %v", total, greedy)
	}
}

func BenchmarkBlossom8(b *testing.B)  { benchBlossom(b, 8) }
func BenchmarkBlossom16(b *testing.B) { benchBlossom(b, 16) }
func BenchmarkBlossom56(b *testing.B) { benchBlossom(b, 56) }

func benchBlossom(b *testing.B, n int) {
	rng := xrand.New(1)
	w := randomWeights(rng, n, 1, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MinWeightPerfectMatching(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBruteForce8(b *testing.B) {
	rng := xrand.New(1)
	w := randomWeights(rng, 8, 1, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := BruteForceMinWeightPerfect(w); err != nil {
			b.Fatal(err)
		}
	}
}
