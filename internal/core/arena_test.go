package core

// Tests for the reentrant policy path: PlaceR through caller-owned arenas
// must be bit-identical to the classic Place surface — private caches,
// shared cache, or no cache — including when many goroutines hammer one
// policy concurrently (the -race gate for the serving path).

import (
	"reflect"
	"sync"
	"testing"

	"synpa/internal/machine"
	"synpa/internal/pmu"
	"synpa/internal/predcache"
)

// drivePlacements replays a deterministic synthetic workload of `quanta`
// decisions through the given placement function, feeding each decision's
// output back as the next quantum's Prev — the cross-quantum feedback loop
// (smoothing, hysteresis) that makes per-arena history observable.
func drivePlacements(place func(*machine.QuantumState) machine.Placement, quanta, numApps, numCores int) []machine.Placement {
	out := make([]machine.Placement, 0, quanta)
	var prev machine.Placement
	for q := 0; q < quanta; q++ {
		st := &machine.QuantumState{
			Quantum:       q,
			NumApps:       numApps,
			NumCores:      numCores,
			DispatchWidth: 4,
		}
		if q > 0 {
			st.Prev = prev
			st.Samples = make([]pmu.Counters, numApps)
			for i := range st.Samples {
				// Deterministic per-(quantum, app) phase behaviour with
				// enough variety to exercise inversion, smoothing and
				// hysteresis without saturating the memo immediately.
				fe := uint64(500 + 900*((q*7+i*13)%8))
				st.Samples[i] = sampleWith(10000, 4000, fe, 8500-fe)
			}
		}
		p := place(st)
		prev = p
		out = append(out, p)
	}
	return out
}

func TestPlaceRMatchesPlaceAcrossCacheModes(t *testing.T) {
	const quanta, apps, cores = 12, 8, 4
	m := PaperCoefficients()
	want := drivePlacements(MustPolicy(m, PolicyOptions{}).Place, quanta, apps, cores)

	// Reentrant path through an explicit arena.
	p := MustPolicy(m, PolicyOptions{})
	a := p.NewArena()
	got := drivePlacements(func(st *machine.QuantumState) machine.Placement {
		return p.PlaceR(a, st)
	}, quanta, apps, cores)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PlaceR(arena) diverged from Place:\n got %v\nwant %v", got, want)
	}

	// Shared concurrent cache installed.
	ps := MustPolicy(m, PolicyOptions{})
	ps.SetSharedCache(predcache.NewShared(predcache.Options{}, 4))
	if !reflect.DeepEqual(drivePlacements(ps.Place, quanta, apps, cores), want) {
		t.Fatal("shared cache diverged from private cache")
	}
	inv, _ := ps.SharedCache().Stats()
	if inv.Hits+inv.Misses == 0 {
		t.Fatal("shared cache saw no traffic — the differential is vacuous")
	}

	// Cache disabled entirely.
	pd := MustPolicy(m, PolicyOptions{Cache: predcache.Options{Disabled: true}})
	if !reflect.DeepEqual(drivePlacements(pd.Place, quanta, apps, cores), want) {
		t.Fatal("cache-disabled diverged from cached")
	}

	// The SMT4 set partition too: same three-way differential.
	smt4 := func(opt PolicyOptions) []machine.Placement {
		pol := MustPolicy(m, opt)
		return drivePlacements(func(st *machine.QuantumState) machine.Placement {
			st.SMTLevel = 4
			return pol.Place(st)
		}, quanta, 12, 3)
	}
	want4 := smt4(PolicyOptions{})
	pg := MustPolicy(m, PolicyOptions{})
	pg.SetSharedCache(predcache.NewShared(predcache.Options{}, 4))
	got4 := drivePlacements(func(st *machine.QuantumState) machine.Placement {
		st.SMTLevel = 4
		return pg.Place(st)
	}, quanta, 12, 3)
	if !reflect.DeepEqual(got4, want4) {
		t.Fatal("SMT4 placement with shared cache diverged")
	}
}

// TestConcurrentPlaceRBitIdentical is the serving-path race gate: many
// goroutines, one policy, one shared cache, each goroutine holding its own
// arena and replaying the same workload — every stream must reproduce the
// serial reference bit for bit, no matter how the schedules interleave.
func TestConcurrentPlaceRBitIdentical(t *testing.T) {
	const quanta, apps, cores, goroutines = 16, 8, 4, 8
	m := PaperCoefficients()
	want := drivePlacements(MustPolicy(m, PolicyOptions{}).Place, quanta, apps, cores)

	p := MustPolicy(m, PolicyOptions{})
	p.SetSharedCache(predcache.NewShared(predcache.Options{}, 4))
	results := make([][]machine.Placement, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a := p.NewArena()
			results[g] = drivePlacements(func(st *machine.QuantumState) machine.Placement {
				return p.PlaceR(a, st)
			}, quanta, apps, cores)
		}(g)
	}
	wg.Wait()
	for g := range results {
		if !reflect.DeepEqual(results[g], want) {
			t.Fatalf("goroutine %d diverged from the serial reference", g)
		}
	}
}

func TestInvertBatch(t *testing.T) {
	m := PaperCoefficients()
	p := MustPolicy(m, PolicyOptions{})
	a := p.NewArena()
	fi := ThreeCategoryFractions(sampleWith(10000, 4000, 500, 8000), 4)
	fj := ThreeCategoryFractions(sampleWith(10000, 4000, 8000, 500), 4)

	reqs := []InvertRequest{{fi, fj}, {fj, fi}, {fi, fj}}
	res := p.InvertBatch(a, reqs)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	ci, cj, conv := m.Invert(fi, fj, DefaultInversion())
	if res[0].Converged != conv ||
		!reflect.DeepEqual(res[0].CI, ci) || !reflect.DeepEqual(res[0].CJ, cj) {
		t.Fatalf("batched inversion diverged from direct Invert:\n got %v %v\nwant %v %v",
			res[0].CI, res[0].CJ, ci, cj)
	}
	if !reflect.DeepEqual(res[2].CI, res[0].CI) {
		t.Fatal("duplicate request returned a different result")
	}
	inv, _ := a.CacheStats()
	if inv.Misses != 2 || inv.Hits != 1 {
		t.Fatalf("batch dedup broken: %+v, want 2 misses 1 hit", inv)
	}

	// Results are caller-owned copies, not cache-owned slices.
	res[0].CI[0] = 42
	again := p.InvertBatch(a, reqs[:1])
	if again[0].CI[0] == 42 {
		t.Fatal("mutating a batch result corrupted the cache")
	}

	// A batch through one arena warms the shared cache for every other.
	ps := MustPolicy(m, PolicyOptions{})
	ps.SetSharedCache(predcache.NewShared(predcache.Options{}, 4))
	a1, a2 := ps.NewArena(), ps.NewArena()
	ps.InvertBatch(a1, reqs)
	ps.InvertBatch(a2, reqs[:1])
	if inv2, _ := a2.CacheStats(); inv2.Hits != 1 || inv2.Misses != 0 {
		t.Fatalf("shared cache not warmed coherently by batch: %+v", inv2)
	}

	if got := p.InvertBatch(a, nil); got != nil {
		t.Fatalf("empty batch returned %v", got)
	}
}
