package machine

import (
	"reflect"
	"runtime"
	"testing"

	"synpa/internal/apps"
)

// fillPolicy keeps each live app on its previous core when it has one and
// sends newcomers to the least-loaded core — a dynamic-safe static
// baseline (st.Prev may hold Unplaced entries for fresh arrivals).
type fillPolicy struct{}

func (fillPolicy) Name() string { return "fill-test" }
func (fillPolicy) Place(st *QuantumState) Placement {
	level := st.ThreadsPerCore()
	p := make(Placement, st.NumApps)
	load := make([]int, st.NumCores)
	for i := range p {
		p[i] = Unplaced
		if st.Prev == nil || i >= len(st.Prev) {
			continue
		}
		if c := st.Prev[i]; c >= 0 && c < st.NumCores && load[c] < level {
			p[i] = c
			load[c]++
		}
	}
	for i := range p {
		if p[i] >= 0 {
			continue
		}
		best := 0
		for c := 1; c < st.NumCores; c++ {
			if load[c] < load[best] {
				best = c
			}
		}
		p[i] = best
		load[best]++
	}
	return p
}

// runWithWorkers executes one closed-system run with the given worker
// count and full tracing.
func runWithWorkers(t *testing.T, workers int) *Result {
	t.Helper()
	cfg := testConfig()
	cfg.Workers = workers
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers() != workers {
		t.Fatalf("Workers() = %d, want %d", m.Workers(), workers)
	}
	models := nModels(8)
	targets := make([]uint64, len(models))
	for i := range targets {
		targets[i] = 120_000
	}
	res, err := m.Run(models, targets, staticPolicy{}, RunnerOptions{Seed: 7, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunWorkersBitIdentical pins the core-sharded parallel quantum engine
// to the serial path: Workers=N and Workers=1 must produce bit-identical
// results — placements, per-quantum samples and per-app outcomes.
func TestRunWorkersBitIdentical(t *testing.T) {
	serial := runWithWorkers(t, 1)
	for _, workers := range []int{2, 3, 4} {
		par := runWithWorkers(t, workers)
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("Workers=%d diverges from Workers=1", workers)
		}
	}
}

// TestRunDynamicWorkersBitIdentical is the open-system counterpart: the
// dynamic runner's partially occupied slices must also be bit-identical
// across worker counts.
func TestRunDynamicWorkersBitIdentical(t *testing.T) {
	dynRun := func(workers int) *DynamicResult {
		cfg := testConfig()
		cfg.Workers = workers
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		models := nModels(6)
		work := make([]DynamicApp, len(models))
		for i, mod := range models {
			work[i] = DynamicApp{
				Model:    mod,
				Target:   60_000,
				ArriveAt: uint64(i) * 9_000, // staggered arrivals, odd live counts
			}
		}
		res, err := m.RunDynamic(work, fillPolicy{}, DynamicOptions{
			Seed:             11,
			RecordPlacements: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := dynRun(1)
	for _, workers := range []int{2, 4} {
		if par := dynRun(workers); !reflect.DeepEqual(serial, par) {
			t.Fatalf("dynamic Workers=%d diverges from Workers=1", workers)
		}
	}
}

// TestEffectiveWorkers covers the resolution rules: the serial count, the
// explicit count, the core-count cap and the GOMAXPROCS default.
func TestEffectiveWorkers(t *testing.T) {
	cfg := testConfig() // Workers=1
	if w := cfg.EffectiveWorkers(); w != 1 {
		t.Fatalf("serial config resolved %d workers", w)
	}
	cfg.Workers = 3
	if w := cfg.EffectiveWorkers(); w != 3 {
		t.Fatalf("explicit Workers=3 resolved %d", w)
	}
	cfg.Workers = 99
	if w := cfg.EffectiveWorkers(); w != cfg.Cores {
		t.Fatalf("Workers above core count resolved %d, want %d", w, cfg.Cores)
	}
	cfg.Workers = 0
	if w, want := cfg.EffectiveWorkers(), min(runtime.GOMAXPROCS(0), cfg.Cores); w != want {
		t.Fatalf("default Workers resolved %d, want GOMAXPROCS capped at the core count = %d", w, want)
	}
}

// TestWorkersIdleCores exercises the sharded engine with more hardware
// threads than applications (idle cores in the busy mask path).
func TestWorkersIdleCores(t *testing.T) {
	run := func(workers int) *Result {
		cfg := testConfig()
		cfg.Workers = workers
		cfg.Cores = 6
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		models := nModels(3) // three apps on six cores
		res, err := m.Run(models, []uint64{50_000, 50_000, 50_000}, staticPolicy{}, RunnerOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	if par := run(4); !reflect.DeepEqual(serial, par) {
		t.Fatal("idle-core run diverges across worker counts")
	}
	// The apps package catalogue must stay usable after the runs (guards
	// against accidental shared-state mutation across worker goroutines).
	if _, err := apps.ByName("mcf"); err != nil {
		t.Fatal(err)
	}
}
