package experiments

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"synpa/internal/core"
	"synpa/internal/machine"
	"synpa/internal/metrics"
	"synpa/internal/workload"
)

// TestFB2AssignmentRanking compares the model's predicted ranking of all 24
// complementary BE<->FE assignments of fb2 against their actual simulated
// turnaround times under static pairing.
func TestFB2AssignmentRanking(t *testing.T) {
	if testing.Short() {
		t.Skip("24 static workload runs")
	}
	cfg := DefaultConfig()
	cfg.Machine.QuantumCycles = 10_000
	cfg.RefQuanta = 60
	cfg.Reps = 1
	cfg.Train.Machine = cfg.Machine
	s := NewSuite(cfg)
	model, _, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workload.ByName(cfg.Seed, "fb2")
	// fb2: BE apps at 0(lbm),1(mcf),2(cactu),3(mcf); FE at 4,5(leela),6(astar),7(mcf_r).
	be := []int{0, 1, 2, 3}
	fe := []int{4, 5, 6, 7}

	// Isolated ST fractions per app.
	iso, err := s.isolatedProfiles()
	if err != nil {
		t.Fatal(err)
	}
	st := make([][]float64, 8)
	for i, m := range w.Apps {
		b := iso[m.Name].breakdown
		st[i] = []float64{b.FD, b.FE, b.BE}
	}

	perms := [][]int{}
	var gen func(cur []int, used int)
	gen = func(cur []int, used int) {
		if len(cur) == 4 {
			perms = append(perms, append([]int{}, cur...))
			return
		}
		for i := 0; i < 4; i++ {
			if used&(1<<i) == 0 {
				gen(append(cur, i), used|1<<i)
			}
		}
	}
	gen(nil, 0)

	targets, err := s.targets.Targets(w)
	if err != nil {
		t.Fatal(err)
	}

	type entry struct {
		perm      []int
		predicted float64
		actualTT  uint64
	}
	entries := make([]entry, len(perms))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for pi, perm := range perms {
		wg.Add(1)
		go func(pi int, perm []int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pred := 0.0
			assign := make(machine.Placement, 8)
			for k, b := range be {
				f := fe[perm[k]]
				pred += model.PairDegradation(st[b], st[f])
				assign[b] = k
				assign[f] = k
			}
			mcfg := cfg.Machine
			mcfg.Workers = 1
			m, _ := machine.New(mcfg)
			res, err := m.Run(w.Apps, targets, machinePinned{assign}, machine.RunnerOptions{Seed: cfg.Seed})
			if err != nil {
				t.Error(err)
				return
			}
			tt, _ := metrics.TurnaroundCycles(res)
			entries[pi] = entry{perm, pred, tt}
		}(pi, perm)
	}
	wg.Wait()

	sort.Slice(entries, func(a, b int) bool { return entries[a].actualTT < entries[b].actualTT })
	// All complementary assignments must land within a modest TT band:
	// the simulator treats fb2's complementary pairings as near-equivalent
	// (see EXPERIMENTS.md), which is why the adaptive policy cannot
	// reproduce the paper's 1.55x on this one workload.
	if worst, best := entries[len(entries)-1].actualTT, entries[0].actualTT; float64(worst) > 1.25*float64(best) {
		t.Errorf("complementary assignments spread too wide: %d..%d", best, worst)
	}
	fmt.Println("rank by ACTUAL TT (perm = FE partner index per BE app 0..3):")
	for i, e := range entries {
		mark := ""
		if e.perm[0] == 0 && e.perm[1] == 1 && e.perm[2] == 2 && e.perm[3] == 3 {
			mark = "  <-- Linux arrival pairing"
		}
		fmt.Printf("%2d. perm=%v actualTT=%-9d predicted=%.4f%s\n", i+1, e.perm, e.actualTT, e.predicted, mark)
	}
	_ = core.DefaultInversion
}

type machinePinned struct{ a machine.Placement }

func (machinePinned) Name() string                                    { return "pinned" }
func (p machinePinned) Place(*machine.QuantumState) machine.Placement { return p.a.Clone() }
