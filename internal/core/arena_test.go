package core

// Tests for the reentrant policy path: PlaceR through caller-owned arenas
// must be bit-identical to the classic Place surface — with or without a
// shared inversion memo — including when many goroutines hammer one policy
// concurrently (the -race gate for the serving path).

import (
	"reflect"
	"sync"
	"testing"

	"synpa/internal/machine"
	"synpa/internal/pmu"
	"synpa/internal/predcache"
	"synpa/internal/xrand"
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
		t.Fatal("shared cache diverged from direct inversion")
	}
	inv, _ := ps.SharedCache().Stats()
	if inv.Hits+inv.Misses == 0 {
		t.Fatal("shared cache saw no traffic — the differential is vacuous")
	}

	// Uninstalling the cache reverts to direct inversion.
	pd := MustPolicy(m, PolicyOptions{})
	pd.SetSharedCache(predcache.NewShared(predcache.Options{}, 4))
	pd.SetSharedCache(nil)
	if !reflect.DeepEqual(drivePlacements(pd.Place, quanta, apps, cores), want) {
		t.Fatal("uninstalled shared cache diverged from direct inversion")
	}

	// The SMT4 set partition too: direct inversion against the shared
	// cache.
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

	// The shared cache is warm for every arena: a fresh arena replaying
	// the workload finds each inversion the others stored, and still
	// reproduces the reference.
	a := p.NewArena()
	if got := drivePlacements(func(st *machine.QuantumState) machine.Placement {
		return p.PlaceR(a, st)
	}, quanta, apps, cores); !reflect.DeepEqual(got, want) {
		t.Fatal("fresh arena on the warm shared cache diverged from the serial reference")
	}
	if inv, _ := a.CacheStats(); inv.Misses != 0 || inv.Hits == 0 {
		t.Fatalf("fresh arena on the warm shared cache: invert stats %+v, want hits and no misses", inv)
	}
}

// TestArenaResetPoolReuse pins the pool contract: a Reset arena keeps its
// buffers and traffic counts but is bit-identical to a freshly allocated
// one.
func TestArenaResetPoolReuse(t *testing.T) {
	const quanta, apps, cores = 10, 8, 4
	m := PaperCoefficients()
	p := MustPolicy(m, PolicyOptions{})

	run := func(a *Arena) []machine.Placement {
		return drivePlacements(func(st *machine.QuantumState) machine.Placement {
			return p.PlaceR(a, st)
		}, quanta, apps, cores)
	}

	a := p.NewArena()
	first := run(a)
	if len(a.LastSTEstimates()) == 0 {
		t.Fatal("run left no smoothing history — Reset has nothing to prove")
	}

	// Reset must clear the cross-request state (smoothing history) while
	// keeping the arena's traffic counts: the reused arena replays the
	// exact reference stream, as if freshly allocated.
	a.Reset()
	if len(a.LastSTEstimates()) != 0 {
		t.Fatal("Reset kept smoothing history")
	}
	inv0, _ := a.CacheStats()
	if inv0.Hits != 0 || inv0.Misses == 0 {
		t.Fatalf("arena without a memo counted %+v, want every inversion as a miss", inv0)
	}
	if second := run(a); !reflect.DeepEqual(second, first) {
		t.Fatalf("pooled (Reset) arena diverged from its own fresh run:\n got %v\nwant %v", second, first)
	}

	// And against a genuinely fresh arena, for the same stream.
	if fresh := run(p.NewArena()); !reflect.DeepEqual(fresh, first) {
		t.Fatalf("fresh arena diverged from pooled arena")
	}
}

// placeShapes are the machine shapes TestPlaceAllocations and
// BenchmarkPlace drive — 8 applications on 4 × SMT2 (the paper-suite
// machine) and on 2 × SMT4 (the smt4-suite machine) — with the pinned
// allocations of one cold decision at each.
var placeShapes = []struct {
	name         string
	cores, level int
	maxAllocs    float64
}{
	{"8apps/4xSMT2", 4, 2, 5},
	{"8apps/2xSMT4", 2, 4, 4},
}

// coldPlacer returns a Place call over fresh samples on every invocation:
// it cycles through a few random sample sets and stretches each one's
// cycle counts by the call number, so no two decisions share an inversion
// input while the call itself allocates only what Place does.
func coldPlacer(cores, level int) func() machine.Placement {
	const apps = 8
	p := MustPolicy(PaperCoefficients(), PolicyOptions{})
	rng := xrand.New(uint64(10*cores + level))
	sets := make([][]pmu.Counters, 16)
	for i := range sets {
		sets[i] = randSamples(rng, apps)
	}
	st := &machine.QuantumState{
		NumApps: apps, NumCores: cores, DispatchWidth: 4, SMTLevel: level,
		Prev: arrivalOrderPlacement(apps, cores), Samples: make([]pmu.Counters, apps),
	}
	i := 0
	return func() machine.Placement {
		copy(st.Samples, sets[i%len(sets)])
		for k := range st.Samples {
			st.Samples[k][pmu.CPUCycles] += uint64(i / len(sets))
		}
		i++
		st.Quantum = i
		return p.Place(st)
	}
}

// TestPlaceAllocations pins the heap allocations of one placement
// decision without a memo. Step 1 extracts into the arena's fraction rows
// and inverts into its estimate rows, and placeGroups marks cores in arena
// scratch, so what remains is the solvers' result slices and the returned
// placement.
func TestPlaceAllocations(t *testing.T) {
	for _, s := range placeShapes {
		place := coldPlacer(s.cores, s.level)
		if allocs := testing.AllocsPerRun(100, func() { place() }); allocs > s.maxAllocs {
			t.Errorf("%s: %v allocations per Place, want at most %v", s.name, allocs, s.maxAllocs)
		}
	}
}

// BenchmarkPlace times one cold placement decision at each placeShapes
// shape: inversions, pair pricing, the Step 3 solve and hysteresis.
func BenchmarkPlace(b *testing.B) {
	for _, s := range placeShapes {
		b.Run(s.name, func(b *testing.B) {
			place := coldPlacer(s.cores, s.level)
			b.ReportAllocs()
			for b.Loop() {
				place()
			}
		})
	}
}
