package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"synpa/internal/machine"
	"synpa/internal/pmu"
	"synpa/internal/xrand"
)

// randSamples builds one quantum's synthetic PMU deltas with random
// frontend/backend stall splits.
func randSamples(rng *xrand.RNG, n int) []pmu.Counters {
	out := make([]pmu.Counters, n)
	for i := range out {
		cycles := uint64(10_000)
		insts := 2_000 + uint64(rng.Intn(6_000))
		stalls := 1_000 + uint64(rng.Intn(8_000))
		fe := uint64(float64(stalls) * rng.Float64())
		out[i] = sampleWith(cycles, insts, fe, stalls-fe)
	}
	return out
}

// TestSMT2PlacementsMatchPairwiseRecord pins PlaceR's SMT2 placements to
// those of the SMT2-only pairwise implementation it replaced: across
// multi-quantum sequences of random samples, with hysteresis at its
// default and off, the digest of every quantum's placement must equal the
// digest that implementation produced on the same inputs. Odd counts
// exercise solo groups.
func TestSMT2PlacementsMatchPairwiseRecord(t *testing.T) {
	want := map[string]string{
		"n=5/seed=1": "fad784131e57135d",
		"n=5/seed=2": "8b40a0842f0d0135",
		"n=5/seed=3": "3204772bf7a65923",
		"n=7/seed=1": "1fb35ff8f26dd477",
		"n=7/seed=2": "aa266348f49baf44",
		"n=7/seed=3": "858f2b7780164067",
		"n=8/seed=1": "c36339ec2f239dcd",
		"n=8/seed=2": "ec0e48874a2f5302",
		"n=8/seed=3": "7ffe3290506a55c5",
	}
	for _, n := range []int{5, 7, 8} {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("n=%d/seed=%d", n, seed)
			t.Run(name, func(t *testing.T) {
				h := sha256.New()
				for _, opt := range []PolicyOptions{{}, {Hysteresis: -1}} {
					p := MustPolicy(PaperCoefficients(), opt)
					rng := xrand.New(seed)
					var prev machine.Placement
					var samples []pmu.Counters
					for q := 0; q < 25; q++ {
						place := p.Place(&machine.QuantumState{
							Quantum: q, NumApps: n, NumCores: 4, DispatchWidth: 4,
							Prev: prev, Samples: samples,
						})
						if err := place.Validate(4, 2); err != nil {
							t.Fatalf("quantum %d: %v", q, err)
						}
						fmt.Fprintln(h, place)
						prev = place
						samples = randSamples(rng, n)
					}
				}
				if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want[name] {
					t.Fatalf("placement digest %s, want %s", got, want[name])
				}
			})
		}
	}
}

// TestPlaceGroupedSMT4 drives the SMT4 set partition: 8 applications on
// 2 SMT4 cores must fill both cores with quads, deterministically.
func TestPlaceGroupedSMT4(t *testing.T) {
	mk := func() (*Policy, *machine.QuantumState) {
		p := MustPolicy(PaperCoefficients(), PolicyOptions{})
		st := &machine.QuantumState{
			Quantum: 1, NumApps: 8, NumCores: 2, DispatchWidth: 4, SMTLevel: 4,
			Prev: machine.Placement{0, 0, 0, 0, 1, 1, 1, 1},
		}
		rng := xrand.New(11)
		st.Samples = randSamples(rng, 8)
		return p, st
	}
	p1, st1 := mk()
	place := p1.Place(st1)
	if err := place.Validate(2, 4); err != nil {
		t.Fatal(err)
	}
	load := map[int]int{}
	for _, c := range place {
		load[c]++
	}
	if load[0] != 4 || load[1] != 4 {
		t.Fatalf("8 apps on 2x4 threads must form two quads, got %v", place)
	}
	p2, st2 := mk()
	if again := p2.Place(st2); !reflect.DeepEqual(place, again) {
		t.Fatalf("grouped placement nondeterministic: %v vs %v", place, again)
	}
}

// TestPlaceGroupedPartialOccupancy covers the dynamic-run shape: a live set
// smaller than the machine with Unplaced Prev entries (a fresh arrival).
func TestPlaceGroupedPartialOccupancy(t *testing.T) {
	p := MustPolicy(PaperCoefficients(), PolicyOptions{})
	rng := xrand.New(3)
	st := &machine.QuantumState{
		Quantum: 2, NumApps: 5, NumCores: 2, DispatchWidth: 4, SMTLevel: 4,
		AppIDs:  []int{0, 1, 2, 3, 9},
		Prev:    machine.Placement{0, 0, 1, 1, machine.Unplaced},
		Samples: randSamples(rng, 5),
	}
	place := p.Place(st)
	if err := place.Validate(2, 4); err != nil {
		t.Fatal(err)
	}
	if len(place) != 5 {
		t.Fatalf("placement %v has wrong length", place)
	}
}

// TestPlaceShortPrevNotHeld pins the hysteresis guard: a previous
// placement that covers fewer applications than the live set is never
// returned as the decision, at SMT2 or above.
func TestPlaceShortPrevNotHeld(t *testing.T) {
	for _, level := range []int{2, 4} {
		p := MustPolicy(PaperCoefficients(), PolicyOptions{Hysteresis: 0.5})
		st := &machine.QuantumState{
			Quantum: 1, NumApps: 3, NumCores: 2, DispatchWidth: 4, SMTLevel: level,
			Prev:    machine.Placement{0, 0},
			Samples: randSamples(xrand.New(5), 3),
		}
		if place := p.Place(st); len(place) != 3 || place.Validate(2, level) != nil {
			t.Fatalf("SMT%d: placement %v for 3 apps", level, place)
		}
	}
}

// TestPlaceSMT1Singletons pins the SMT1 routing: the policy must never
// co-locate two applications on a one-thread core, whatever the model
// predicts, so level 1 runs the grouping path's forced singletons.
func TestPlaceSMT1Singletons(t *testing.T) {
	p := MustPolicy(PaperCoefficients(), PolicyOptions{})
	rng := xrand.New(17)
	var prev machine.Placement
	var samples []pmu.Counters
	for q := 0; q < 10; q++ {
		st := &machine.QuantumState{
			Quantum: q, NumApps: 4, NumCores: 4, DispatchWidth: 4, SMTLevel: 1,
			Prev: prev, Samples: samples,
		}
		place := p.Place(st)
		if err := place.Validate(4, 1); err != nil {
			t.Fatalf("quantum %d: %v (placement %v)", q, err, place)
		}
		prev = place
		samples = randSamples(rng, 4)
	}
}

// TestPlaceGroupedHysteresisSoloCost pins the solo-cost scale of the
// grouped hysteresis: the previous placement must be priced under the same
// matrix and grouping.DefaultSoloCost as the fresh partition, or
// hysteresis pins the policy to Prev. Three apps crowded onto one core of
// an SMT4 machine pay three pair terms of about 2 each, while running each
// alone costs 3·DefaultSoloCost, so the policy must spread them out.
func TestPlaceGroupedHysteresisSoloCost(t *testing.T) {
	p := MustPolicy(PaperCoefficients(), PolicyOptions{Hysteresis: 0.01})
	rng := xrand.New(23)
	st := &machine.QuantumState{
		Quantum: 1, NumApps: 3, NumCores: 3, DispatchWidth: 4, SMTLevel: 4,
		Prev:    machine.Placement{0, 0, 0},
		Samples: randSamples(rng, 3),
	}
	place := p.Place(st)
	if err := place.Validate(3, 4); err != nil {
		t.Fatal(err)
	}
	if place[0] == place[1] || place[0] == place[2] || place[1] == place[2] {
		t.Fatalf("hysteresis kept apps co-running although solo runs cost less: %v", place)
	}
}

// TestPlaceGroupsKeepsUnchangedGroups pins the migration-minimising
// core assignment: a partition identical to the previous grouping must not
// move anyone.
func TestPlaceGroupsKeepsUnchangedGroups(t *testing.T) {
	prev := machine.Placement{0, 0, 0, 0, 1, 1, 1, 1}
	groups := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	a := new(Arena)
	place := a.placeGroups(groups, 8, 2, prev)
	for i := range prev {
		if place[i] != prev[i] {
			t.Fatalf("unnecessary migration: %v -> %v", prev, place)
		}
	}
	// Swapped groups across cores still land on a core a member held.
	swapped := [][]int{{0, 1, 6, 7}, {2, 3, 4, 5}}
	place = a.placeGroups(swapped, 8, 2, prev) // reuses the arena's core scratch
	if err := place.Validate(2, 4); err != nil {
		t.Fatal(err)
	}
	if place[0] != place[1] || place[0] != place[6] || place[0] != place[7] {
		t.Fatalf("group split across cores: %v", place)
	}
	if place[2] != place[3] || place[2] != place[4] || place[2] != place[5] {
		t.Fatalf("group split across cores: %v", place)
	}
	if place[0] == place[2] {
		t.Fatalf("both groups on one core: %v", place)
	}
}
