package smtcore

import (
	"fmt"
	"testing"

	"synpa/internal/apps"
	"synpa/internal/pmu"
)

// newBank returns an enabled PMU bank.
func newBank(t *testing.T) *pmu.Bank {
	t.Helper()
	b := &pmu.Bank{}
	b.Enable()
	return b
}

// TestLevelConfig pins the Config.Level defaulting and validation rules.
func TestLevelConfig(t *testing.T) {
	if got := (Config{}).Level(); got != DefaultSMTLevel {
		t.Fatalf("zero Config.Level() = %d, want %d", got, DefaultSMTLevel)
	}
	for lvl := 1; lvl <= MaxSMTLevel; lvl++ {
		cfg := DefaultConfig()
		cfg.SMTLevel = lvl
		if err := cfg.Validate(); err != nil {
			t.Fatalf("SMTLevel %d rejected: %v", lvl, err)
		}
		c := New(0, cfg)
		if c.Level() != lvl {
			t.Fatalf("core level = %d, want %d", c.Level(), lvl)
		}
	}
	for _, lvl := range []int{-1, MaxSMTLevel + 1} {
		cfg := DefaultConfig()
		cfg.SMTLevel = lvl
		if err := cfg.Validate(); err == nil {
			t.Fatalf("SMTLevel %d accepted", lvl)
		}
	}
}

// TestPartitionCapLevels pins the shared-queue cap generalisation: with two
// active threads the cap is SMTPartitionFrac exactly (the SMT2 regression
// guard), and above two each co-runner keeps a (1 − frac) share floored at
// an even split.
func TestPartitionCapLevels(t *testing.T) {
	mcf, err := apps.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SMTLevel = 4
	cases := []struct {
		active int
		frac   float64
	}{
		{1, 1.0},
		{2, cfg.SMTPartitionFrac},           // == the SMT2 cap
		{3, 1 - 2*(1-cfg.SMTPartitionFrac)}, // 0.50 at the default 0.75
		{4, 1 - 3*(1-cfg.SMTPartitionFrac)}, // 0.25, still above the 1/4 floor
	}
	for _, c := range cases {
		core := New(0, cfg)
		for s := 0; s < c.active; s++ {
			bank := newBank(t)
			core.Bind(s, apps.NewInstance(mcf, uint64(s)+1), bank)
		}
		want := int(c.frac * float64(cfg.ROBSize))
		if core.robCap != want {
			t.Errorf("active=%d: robCap = %d, want %d (frac %v)", c.active, core.robCap, want, c.frac)
		}
	}
}

// TestFastForwardDifferentialLevels proves observational equivalence of the
// fast-forward engine (bulk tier + slice-based span tier) against the
// per-cycle reference at SMT levels 1, 3 and 4, including partial occupancy.
func TestFastForwardDifferentialLevels(t *testing.T) {
	cases := []struct {
		level  int
		mix    []string
		quanta int // 5,000-cycle quanta to run
	}{
		{1, []string{"mcf"}, 20},
		{1, []string{"exchange2_r"}, 20},
		// SMT3: three residents, and a hole in the middle slot.
		{3, []string{"lbm_r", "milc", "mcf"}, 20},
		{3, []string{"gobmk", "perlbench", "leela_r"}, 20},
		{3, []string{"mcf", "", "exchange2_r"}, 20},
		// SMT4: full house across the behaviour groups, plus partial
		// occupancy (two and three residents on a 4-way core).
		{4, []string{"lbm_r", "milc", "mcf", "cactuBSSN_r"}, 20},
		{4, []string{"gobmk", "perlbench", "leela_r", "exchange2_r"}, 20},
		{4, []string{"mcf", "gobmk", "lbm_r", "nab_r"}, 20},
		{4, []string{"leela_r", "mcf_r", "astar", "povray_r"}, 20},
		{4, []string{"mcf", "gobmk", "", ""}, 20},
		{4, []string{"", "lbm_r", "", "exchange2_r"}, 20},
		// Backend pair next to dispatch-steady co-runners that keep
		// retiring while a frozen thread waits on its miss.
		{4, []string{"lbm_r", "milc", "exchange2_r", "nab_r"}, 20},
		// Phase-flipping apps, run long enough (4M cycles) for every
		// resident to cross a phase boundary inline.
		{3, []string{"astar", "leela_r", "mcf_r"}, 800},
	}
	seeds := []uint64{1, 42, 0xDEADBEEF}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.SMTLevel = c.level
		for _, seed := range seeds {
			name := fmt.Sprintf("smt%d/%v/seed=%d", c.level, c.mix, seed)
			t.Run(name, func(t *testing.T) {
				ref, fast, slots, err := newDiffCoresCfg(cfg, c.mix, seed)
				if err != nil {
					t.Fatal(err)
				}
				assertLockstep(t, ref, fast, slots, c.quanta, 5_000)
			})
		}
	}
}

// TestFastForwardRebindLevels exercises occupancy transitions on an SMT4
// core: 4 → 2 → 3 residents, with rate/cap refreshes at every step.
func TestFastForwardRebindLevels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SMTLevel = 4
	ref, fast, slots, err := newDiffCoresCfg(cfg, []string{"mcf", "leela_r", "lbm_r", "gobmk"}, 99)
	if err != nil {
		t.Fatal(err)
	}
	assertLockstep(t, ref, fast, slots, 4, 5_000)
	// Evict two residents: the partition caps relax to the pairwise frac.
	for _, s := range []int{1, 3} {
		ref.Bind(s, nil, nil)
		fast.Bind(s, nil, nil)
	}
	assertLockstep(t, ref, fast, []enginePair{slots[0], slots[2]}, 4, 5_000)
	// Attach a fresh third resident.
	m, err := apps.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	p := enginePair{
		refInst:  apps.NewInstance(m, 123),
		fastInst: apps.NewInstance(m, 123),
		refBank:  newBank(t),
		fastBank: newBank(t),
	}
	ref.Bind(1, p.refInst, p.refBank)
	fast.Bind(1, p.fastInst, p.fastBank)
	assertLockstep(t, ref, fast, []enginePair{slots[0], p, slots[2]}, 4, 5_000)
}
