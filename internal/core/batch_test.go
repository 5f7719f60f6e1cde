package core

// Serving-path warm/reset invariants: WarmInversions must populate the memo
// under exactly the keys PlaceR will look up (warming changes speed, never
// bits), and a Reset pooled arena must be indistinguishable bit-wise from a
// freshly allocated one.

import (
	"reflect"
	"testing"

	"synpa/internal/machine"
	"synpa/internal/pmu"
)

// warmStates builds deterministic quantum states whose Prev places apps in
// co-running pairs, so every state contributes pair inversions.
func warmStates(n, apps, cores int) []*machine.QuantumState {
	out := make([]*machine.QuantumState, 0, n)
	for q := 0; q < n; q++ {
		st := &machine.QuantumState{
			Quantum:       q,
			NumApps:       apps,
			NumCores:      cores,
			DispatchWidth: 4,
			Prev:          make(machine.Placement, apps),
			Samples:       make([]pmu.Counters, apps),
		}
		for i := range st.Prev {
			st.Prev[i] = i / 2 // pair neighbours: (0,1) on core 0, (2,3) on core 1...
		}
		for i := range st.Samples {
			fe := uint64(500 + 900*((q*7+i*13)%8))
			st.Samples[i] = sampleWith(10000, 4000, fe, 8500-fe)
		}
		out = append(out, st)
	}
	return out
}

func TestWarmInversionsKeysMatchPlaceR(t *testing.T) {
	m := PaperCoefficients()
	for _, c := range []struct {
		name             string
		apps, cores, smt int
	}{
		{"smt2", 8, 4, 2},
		// Three two-app cores and a solo on SMT4 cores: two-app cores
		// invert jointly at every level, so they warm at every level.
		{"smt4", 7, 4, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			sts := warmStates(6, c.apps, c.cores)
			for _, st := range sts {
				st.SMTLevel = c.smt
			}

			// Reference: the placements an unwarmed policy produces.
			ref := MustPolicy(m, PolicyOptions{})
			ra := ref.NewArena()
			want := make([]machine.Placement, len(sts))
			for i, st := range sts {
				want[i] = ref.PlaceR(ra, st)
			}

			// Warmed run: prefetch all inversions, then place. Every
			// inversion PlaceR needs must already be memoised — zero
			// misses — and the placements must be bit-identical.
			p := MustPolicy(m, PolicyOptions{})
			a := p.NewArena()
			n := p.WarmInversions(a, sts)
			if n == 0 {
				t.Fatal("warm batched no inversions — the test workload is vacuous")
			}
			inv0, _ := a.CacheStats()
			for i, st := range sts {
				if got := p.PlaceR(a, st); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("state %d: warmed placement %v != unwarmed %v", i, got, want[i])
				}
			}
			inv1, _ := a.CacheStats()
			if misses := inv1.Misses - inv0.Misses; misses != 0 {
				t.Fatalf("PlaceR missed the memo %d times after warming — key mismatch", misses)
			}
			if inv1.Hits <= inv0.Hits {
				t.Fatal("PlaceR recorded no memo hits after warming")
			}
		})
	}

	// States with no two-app core (SMT4 quads), no samples, or nil are
	// skipped, not mis-keyed.
	p := MustPolicy(m, PolicyOptions{})
	quads := warmStates(1, 8, 2)[0]
	quads.SMTLevel = 4
	for i := range quads.Prev {
		quads.Prev[i] = i / 4
	}
	if got := p.WarmInversions(p.NewArena(), []*machine.QuantumState{quads, nil, {NumApps: 2, NumCores: 4}}); got != 0 {
		t.Fatalf("warm batched %d inversions for off-path states, want 0", got)
	}
}

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
	// keeping the memo: the reused arena replays the exact reference
	// stream, as if freshly allocated.
	a.Reset()
	if len(a.LastSTEstimates()) != 0 {
		t.Fatal("Reset kept smoothing history")
	}
	inv0, _ := a.CacheStats()
	if inv0.Hits+inv0.Misses == 0 {
		t.Fatal("Reset dropped the memo — pooling would lose all warmth")
	}
	if second := run(a); !reflect.DeepEqual(second, first) {
		t.Fatalf("pooled (Reset) arena diverged from its own fresh run:\n got %v\nwant %v", second, first)
	}

	// And against a genuinely fresh arena, for the same stream.
	if fresh := run(p.NewArena()); !reflect.DeepEqual(fresh, first) {
		t.Fatalf("fresh arena diverged from pooled arena")
	}
}
