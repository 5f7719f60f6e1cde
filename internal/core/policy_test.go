package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"synpa/internal/machine"
	"synpa/internal/pmu"
	"synpa/internal/xrand"
)

func TestNewPolicyValidation(t *testing.T) {
	if _, err := NewPolicy(nil, PolicyOptions{}); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewPolicy(&Model{}, PolicyOptions{}); err == nil {
		t.Fatal("invalid model accepted")
	}
	p, err := NewPolicy(PaperCoefficients(), PolicyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "SYNPA" {
		t.Fatalf("Name = %q", p.Name())
	}
	p2 := MustPolicy(PaperCoefficients(), PolicyOptions{Name: "SYNPA-x"})
	if p2.Name() != "SYNPA-x" {
		t.Fatalf("Name = %q", p2.Name())
	}
}

func TestMustPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustPolicy did not panic")
		}
	}()
	MustPolicy(nil, PolicyOptions{})
}

func TestFirstQuantumIsArrivalOrder(t *testing.T) {
	p := MustPolicy(PaperCoefficients(), PolicyOptions{})
	place := p.Place(&machine.QuantumState{NumApps: 8, NumCores: 4, DispatchWidth: 4})
	want := machine.Placement{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if place[i] != want[i] {
			t.Fatalf("initial placement = %v, want %v", place, want)
		}
	}
}

// sampleWith builds a PMU quantum delta with the given category cycles.
func sampleWith(cycles, insts, fe, be uint64) pmu.Counters {
	var c pmu.Counters
	c[pmu.CPUCycles] = cycles
	c[pmu.InstSpec] = insts
	c[pmu.InstRetired] = insts
	c[pmu.StallFrontend] = fe
	c[pmu.StallBackend] = be
	return c
}

func TestPlacePairsComplementaryApps(t *testing.T) {
	// Four apps: two clearly backend-bound samples, two clearly
	// frontend-bound. With the paper's model the chosen pairing must mix
	// the types (each backend app with a frontend app).
	p := MustPolicy(PaperCoefficients(), PolicyOptions{})
	samples := []pmu.Counters{
		sampleWith(10000, 4000, 500, 8000), // backend
		sampleWith(10000, 4000, 8000, 500), // frontend
		sampleWith(10000, 4000, 400, 8200), // backend
		sampleWith(10000, 4000, 7800, 600), // frontend
	}
	st := &machine.QuantumState{
		Quantum:       1,
		NumApps:       4,
		NumCores:      2,
		DispatchWidth: 4,
		Prev:          machine.Placement{0, 0, 1, 1}, // BE+FE pairs already
		Samples:       samples,
	}
	place := p.Place(st)
	if err := place.Validate(2, 2); err != nil {
		t.Fatal(err)
	}
	// Apps 0,2 are backend; 1,3 frontend. Complementary pairing means 0
	// shares with 1 or 3, and 2 with the other.
	if place[0] == place[2] {
		t.Fatalf("placement %v pairs the two backend-bound apps", place)
	}
	if place[1] == place[3] {
		t.Fatalf("placement %v pairs the two frontend-bound apps", place)
	}
	if est := p.LastSTEstimates(); len(est) != 4 {
		t.Fatalf("LastSTEstimates has %d entries", len(est))
	}
}

func TestPlacePairsKeepsUnchangedPairingInPlace(t *testing.T) {
	// When the matching reproduces the previous pairing, placeGroups must
	// not migrate anyone: pairs stay on their previous cores.
	prev := machine.Placement{0, 0, 1, 1}
	groups := [][]int{{0, 1}, {2, 3}} // identical pairing
	place := new(Arena).placeGroups(groups, 4, 2, prev)
	for i := range prev {
		if place[i] != prev[i] {
			t.Fatalf("unnecessary migration: %v -> %v", prev, place)
		}
	}
}

func TestPlacePairsReassignsChangedPairs(t *testing.T) {
	// Swapped partners: every pair should land on a core one of its
	// members occupied before, with no core hosting two pairs.
	prev := machine.Placement{0, 0, 1, 1}
	groups := [][]int{{0, 3}, {1, 2}}
	place := new(Arena).placeGroups(groups, 4, 2, prev)
	if err := place.Validate(2, 2); err != nil {
		t.Fatal(err)
	}
	if place[0] != place[3] || place[1] != place[2] || place[0] == place[1] {
		t.Fatalf("pairing broken: %v", place)
	}
}

func TestPlacePairsHandlesSoloAndEmpty(t *testing.T) {
	// 3 real apps on 2 cores: the SMT2 matching pairs app 2 with a virtual
	// idle slot (index >= numApps), which matchedGroups turns into a solo
	// group.
	prev := machine.Placement{0, 0, 1}
	mate := []int{1, 0, 3, 2} // (0,1) real pair; app 2 with virtual 3
	groups := (&Arena{}).matchedGroups(mate, 3)
	if !reflect.DeepEqual(groups, [][]int{{0, 1}, {2}}) {
		t.Fatalf("matchedGroups(%v) = %v", mate, groups)
	}
	place := new(Arena).placeGroups(groups, 3, 2, prev)
	if err := place.Validate(2, 2); err != nil {
		t.Fatal(err)
	}
	if place[0] != place[1] || place[2] == place[0] {
		t.Fatalf("solo placement broken: %v", place)
	}
}

func TestPlaceOddAppsUsesIdleSlots(t *testing.T) {
	// 3 apps on 2 cores: one app must run alone; nobody is dropped.
	p := MustPolicy(PaperCoefficients(), PolicyOptions{})
	samples := []pmu.Counters{
		sampleWith(10000, 4000, 500, 8000),
		sampleWith(10000, 4000, 8000, 500),
		sampleWith(10000, 4000, 400, 8200),
	}
	st := &machine.QuantumState{
		Quantum: 1, NumApps: 3, NumCores: 2, DispatchWidth: 4,
		Prev: machine.Placement{0, 0, 1}, Samples: samples,
	}
	place := p.Place(st)
	if err := place.Validate(2, 2); err != nil {
		t.Fatal(err)
	}
	if len(place) != 3 {
		t.Fatalf("placement %v", place)
	}
}

func TestMatchersAgreeOnOptimum(t *testing.T) {
	// Blossom and brute force must produce equal-cost pairings; greedy
	// may differ but must be valid.
	samples := []pmu.Counters{
		sampleWith(10000, 4000, 500, 8000),
		sampleWith(10000, 4000, 8000, 500),
		sampleWith(10000, 4000, 400, 8200),
		sampleWith(10000, 4000, 7800, 600),
		sampleWith(10000, 9000, 300, 400),
		sampleWith(10000, 2000, 4000, 3000),
		sampleWith(10000, 4000, 2000, 5000),
		sampleWith(10000, 5000, 1000, 3000),
	}
	prev := machine.Placement{0, 0, 1, 1, 2, 2, 3, 3}
	st := &machine.QuantumState{
		Quantum: 1, NumApps: 8, NumCores: 4, DispatchWidth: 4,
		Prev: prev, Samples: samples,
	}
	var placements []machine.Placement
	for _, matcher := range []Matcher{MatcherBlossom, MatcherBruteForce, MatcherGreedy} {
		p := MustPolicy(PaperCoefficients(), PolicyOptions{Matcher: matcher})
		place := p.Place(st)
		if err := place.Validate(4, 2); err != nil {
			t.Fatalf("%v: %v", matcher, err)
		}
		placements = append(placements, place)
	}
	// Blossom and brute force must induce equal-cost pairings (ties may
	// be broken differently). Reconstruct the degradation matrix through
	// the public API and compare totals.
	p := MustPolicy(PaperCoefficients(), PolicyOptions{})
	est := make([][]float64, 8)
	for i := 0; i < 8; i++ {
		fi := ThreeCategoryFractions(nil, samples[i], 4)
		mate := prev.CoMate(i)
		fj := ThreeCategoryFractions(nil, samples[mate], 4)
		ci, cj, _ := p.Model().Invert(fi, fj, DefaultInversion())
		if est[i] == nil {
			est[i] = ci
		}
		if est[mate] == nil {
			est[mate] = cj
		}
	}
	cost := func(pl machine.Placement) float64 {
		total := 0.0
		for i := 0; i < 8; i++ {
			if m := pl.CoMate(i); m > i {
				total += p.Model().PairDegradation(est[i], est[m])
			}
		}
		return total
	}
	blossomCost := cost(placements[0])
	bruteCost := cost(placements[1])
	greedyCost := cost(placements[2])
	if diff := blossomCost - bruteCost; diff > 1e-4 || diff < -1e-4 {
		t.Fatalf("blossom cost %v != brute-force cost %v", blossomCost, bruteCost)
	}
	if greedyCost < bruteCost-1e-6 {
		t.Fatalf("greedy cost %v beats the optimum %v (impossible)", greedyCost, bruteCost)
	}
}

func TestMatcherString(t *testing.T) {
	for _, m := range []Matcher{MatcherBlossom, MatcherBruteForce, MatcherGreedy, Matcher(9)} {
		if m.String() == "" {
			t.Fatalf("matcher %d has empty name", m)
		}
	}
}

func TestGreedyMatchComplete(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 20; trial++ {
		n := 2 * (1 + rng.Intn(4))
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := rng.Float64()
				w[i][j], w[j][i] = v, v
			}
		}
		mate := greedyMatch(w)
		for i, m := range mate {
			if m < 0 || mate[m] != i {
				t.Fatalf("greedy left vertex %d unmatched: %v", i, mate)
			}
		}
	}
}

// tenCategoryModel is a 10-category model (the §VI-A preliminary model's
// shape) with moderate interference in every category.
func tenCategoryModel() *Model {
	m := &Model{Categories: TenCategories}
	for k := range TenCategories {
		m.Coef = append(m.Coef, Coefficients{Alpha: 0.01 * float64(k%3), Beta: 1, Gamma: 0.05, Rho: 0.02})
	}
	return m
}

// TestExtractorFor pins the model-to-extractor choice: K alone picks it.
// Each extractor writes over a dst of capacity K without allocating, and
// the values match a fresh extraction whatever dst held.
func TestExtractorFor(t *testing.T) {
	var c pmu.Counters
	c[pmu.CPUCycles] = 1000
	c[pmu.InstRetired] = 1200
	c[pmu.StallFrontend] = 300
	c[pmu.StallBEROB] = 150
	for k, want := range map[int]int{3: 3, 10: 10} {
		ex, err := ExtractorFor(k)
		if err != nil {
			t.Fatal(err)
		}
		fresh := ex(nil, c, 4)
		if got := len(fresh); got != want {
			t.Fatalf("ExtractorFor(%d) extracts %d categories", k, got)
		}
		dst := make([]float64, want)
		for i := range dst {
			dst[i] = math.NaN()
		}
		if got := ex(dst, c, 4); &got[0] != &dst[0] || !slices.Equal(got, fresh) {
			t.Fatalf("ExtractorFor(%d) into a K-row gave %v (own storage %v), want %v", k, got, &got[0] == &dst[0], fresh)
		}
		if allocs := testing.AllocsPerRun(10, func() { ex(dst, c, 4) }); allocs != 0 {
			t.Fatalf("ExtractorFor(%d) into a K-row made %v allocations", k, allocs)
		}
	}
	for _, k := range []int{0, 1, 2, 4, 5, 9, 11} {
		if _, err := ExtractorFor(k); err == nil {
			t.Fatalf("ExtractorFor(%d) accepted", k)
		}
	}
}

// TestTenCategoryModelPlacesPairs drives a 10-category model through a
// paired SMT2 decision: the policy must read the samples with
// TenCategoryFractions, invert both pairs and price every candidate pair
// with a finite degradation.
func TestTenCategoryModelPlacesPairs(t *testing.T) {
	m := tenCategoryModel()
	p, err := NewPolicy(m, PolicyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(10)
	samples := randSamples(rng, 4)
	for i := range samples {
		c := &samples[i]
		fe, be := c[pmu.StallFrontend], c[pmu.StallBackend]
		c[pmu.StallFEICache], c[pmu.StallFEBranch] = fe/2, fe-fe/2
		c[pmu.StallBEMemLat], c[pmu.StallBEROB], c[pmu.StallBEOther] = be/2, be/4, be-be/2-be/4
	}
	st := &machine.QuantumState{
		Quantum: 1, NumApps: 4, NumCores: 2, DispatchWidth: 4, SMTLevel: 2,
		Prev:    machine.Placement{0, 0, 1, 1},
		Samples: samples,
	}
	if err := p.Place(st).Validate(2, 2); err != nil {
		t.Fatal(err)
	}
	if inv, _ := p.CacheStats(); inv.Misses != 2 {
		t.Fatalf("%d inversions, want one per pair (2)", inv.Misses)
	}
	est := p.LastSTEstimates()
	for i := range est {
		if len(est[i]) != 10 {
			t.Fatalf("app %d estimate has %d categories, want 10", i, len(est[i]))
		}
		for j := i + 1; j < len(est); j++ {
			if d := m.PairDegradation(est[i], est[j]); math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("pair (%d,%d) degradation %v", i, j, d)
			}
		}
	}
}

// TestNewPolicyRefusesUnsupportedK: a model with no extractor (here five
// categories) is refused at construction, before any decision reads it.
func TestNewPolicyRefusesUnsupportedK(t *testing.T) {
	m := &Model{}
	for k := range 5 {
		m.Categories = append(m.Categories, string(rune('a'+k)))
		m.Coef = append(m.Coef, Coefficients{Beta: 1})
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("the K=5 model must be valid apart from its K: %v", err)
	}
	if _, err := NewPolicy(m, PolicyOptions{}); err == nil {
		t.Fatal("NewPolicy accepted a 5-category model")
	}
}
