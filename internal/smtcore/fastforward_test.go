package smtcore

import (
	"fmt"
	"testing"

	"synpa/internal/apps"
	"synpa/internal/pmu"
)

// enginePair is one application slot simulated twice: once on the reference
// per-cycle core and once on the fast-forwarding core, with identical seeds.
type enginePair struct {
	refInst, fastInst *apps.Instance
	refBank, fastBank *pmu.Bank
}

// newDiffCores builds a reference core and a fast-forward core with the
// given applications bound to matching slots and identical private streams.
func newDiffCores(names []string, seed uint64) (ref, fast *Core, slots []enginePair, err error) {
	return newDiffCoresCfg(DefaultConfig(), names, seed)
}

// newDiffCoresCfg is newDiffCores with an explicit core configuration (the
// SMT-level differential tests vary Config.SMTLevel).
func newDiffCoresCfg(cfg Config, names []string, seed uint64) (ref, fast *Core, slots []enginePair, err error) {
	ref = New(0, cfg)
	fast = New(0, cfg)
	fast.SetFastForward(true)
	// The reference core keeps full LDQ/STQ bookkeeping: the comparison
	// then also proves the fast engine's dead-clamp elision neutral.
	ref.forceLiveQueues = true
	for i, name := range names {
		if name == "" {
			continue
		}
		m, err := apps.ByName(name)
		if err != nil {
			return nil, nil, nil, err
		}
		p := enginePair{
			refInst:  apps.NewInstance(m, seed+uint64(i)),
			fastInst: apps.NewInstance(m, seed+uint64(i)),
			refBank:  &pmu.Bank{},
			fastBank: &pmu.Bank{},
		}
		p.refBank.Enable()
		p.fastBank.Enable()
		ref.Bind(i, p.refInst, p.refBank)
		fast.Bind(i, p.fastInst, p.fastBank)
		slots = append(slots, p)
	}
	return ref, fast, slots, nil
}

// assertLockstep runs both cores in quantum-sized chunks and asserts
// bit-identical observable state after every quantum.
func assertLockstep(t *testing.T, ref, fast *Core, slots []enginePair, quanta int, quantum uint64) {
	t.Helper()
	for q := 0; q < quanta; q++ {
		ref.Run(quantum)
		fast.Run(quantum)
		if ref.Cycle() != fast.Cycle() {
			t.Fatalf("quantum %d: cycle mismatch ref=%d fast=%d", q, ref.Cycle(), fast.Cycle())
		}
		// Every fast-engine cycle runs in the span or the bulk tier; the
		// reference step is never a fallback.
		if es := fast.EngineStats(); es.StepCycles != 0 || es.SpanCycles+es.FFCycles != fast.Cycle() {
			t.Fatalf("quantum %d: fast core tier split step=%d span=%d ff=%d, cycle=%d",
				q, es.StepCycles, es.SpanCycles, es.FFCycles, fast.Cycle())
		}
		for s, p := range slots {
			rb, fb := p.refBank.Read(), p.fastBank.Read()
			if rb != fb {
				for e := pmu.Event(0); e < pmu.NumEvents; e++ {
					if rb[e] != fb[e] {
						t.Errorf("quantum %d slot %d: %v ref=%d fast=%d", q, s, e, rb[e], fb[e])
					}
				}
				t.Fatalf("quantum %d slot %d (%s): PMU banks diverged", q, s, p.refInst.Model.Name)
			}
			if p.refInst.Retired != p.fastInst.Retired {
				t.Fatalf("quantum %d slot %d (%s): Retired ref=%d fast=%d",
					q, s, p.refInst.Model.Name, p.refInst.Retired, p.fastInst.Retired)
			}
			if p.refInst.Dispatched != p.fastInst.Dispatched {
				t.Fatalf("quantum %d slot %d (%s): Dispatched ref=%d fast=%d",
					q, s, p.refInst.Model.Name, p.refInst.Dispatched, p.fastInst.Dispatched)
			}
			if p.refInst.PhaseIndex() != p.fastInst.PhaseIndex() {
				t.Fatalf("quantum %d slot %d (%s): phase ref=%d fast=%d",
					q, s, p.refInst.Model.Name, p.refInst.PhaseIndex(), p.fastInst.PhaseIndex())
			}
		}
	}
}

// TestFastForwardDifferential proves observational equivalence of the
// fast-forward engine against the per-cycle reference across representative
// app mixes (single-threaded and SMT, every Table III group, the
// phase-flipping apps) and several seeds.
func TestFastForwardDifferential(t *testing.T) {
	mixes := [][]string{
		// Single-threaded (the training/characterization configuration).
		{"lbm_r"},
		{"gobmk"},
		{"leela_r"},
		{"exchange2_r"},
		{"mcf"},
		// SMT pairs: backend+backend, frontend+frontend, mixed,
		// phase-flippers together, low-event pair.
		{"lbm_r", "milc"},
		{"gobmk", "perlbench"},
		{"mcf", "gobmk"},
		{"leela_r", "mcf_r"},
		{"exchange2_r", "nab_r"},
		{"cactuBSSN_r", "astar"},
	}
	seeds := []uint64{1, 42, 0xDEADBEEF}
	for _, mix := range mixes {
		for _, seed := range seeds {
			name := fmt.Sprintf("%v/seed=%d", mix, seed)
			t.Run(name, func(t *testing.T) {
				ref, fast, slots, err := newDiffCores(mix, seed)
				if err != nil {
					t.Fatal(err)
				}
				assertLockstep(t, ref, fast, slots, 25, 5_000)
			})
		}
	}
}

// TestFastForwardFullCatalogue sweeps every application in isolation — the
// configuration the training pipeline and target measurement run in.
func TestFastForwardFullCatalogue(t *testing.T) {
	if testing.Short() {
		t.Skip("catalogue sweep skipped in -short mode")
	}
	for _, m := range apps.Catalog() {
		t.Run(m.Name, func(t *testing.T) {
			ref, fast, slots, err := newDiffCores([]string{m.Name}, 7)
			if err != nil {
				t.Fatal(err)
			}
			assertLockstep(t, ref, fast, slots, 12, 5_000)
		})
	}
}

// TestFastForwardRebind exercises mid-run rebinding (the machine layer's
// migrations): bindings flush microstate and refresh contention rates, and
// the engines must stay in lockstep across them.
func TestFastForwardRebind(t *testing.T) {
	ref, fast, slots, err := newDiffCores([]string{"mcf", "leela_r"}, 99)
	if err != nil {
		t.Fatal(err)
	}
	assertLockstep(t, ref, fast, slots, 5, 5_000)
	// Evict slot 1: both cores drop to single-threaded mode.
	ref.Bind(1, nil, nil)
	fast.Bind(1, nil, nil)
	assertLockstep(t, ref, fast, slots[:1], 5, 5_000)
	// Re-attach a fresh co-runner.
	m, err := apps.ByName("lbm_r")
	if err != nil {
		t.Fatal(err)
	}
	p := enginePair{
		refInst:  apps.NewInstance(m, 123),
		fastInst: apps.NewInstance(m, 123),
		refBank:  &pmu.Bank{},
		fastBank: &pmu.Bank{},
	}
	p.refBank.Enable()
	p.fastBank.Enable()
	ref.Bind(1, p.refInst, p.refBank)
	fast.Bind(1, p.fastInst, p.fastBank)
	assertLockstep(t, ref, fast, []enginePair{slots[0], p}, 5, 5_000)
}

// TestFastForwardIdleCore checks the trivial regime: an idle core advances
// its cycle count and nothing else.
func TestFastForwardIdleCore(t *testing.T) {
	c := New(0, DefaultConfig())
	c.SetFastForward(true)
	c.Run(123_457)
	if got := c.Cycle(); got != 123_457 {
		t.Fatalf("idle core cycle = %d, want 123457", got)
	}
}

// --- Benchmarks -------------------------------------------------------------

// benchCoreRun times Core.Run on one app mix at the given SMT level with the
// engine on or off.
func benchCoreRun(b *testing.B, level int, names []string, ff bool) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.SMTLevel = level
	ref, fast, _, err := newDiffCoresCfg(cfg, names, 3)
	if err != nil {
		b.Fatal(err)
	}
	c := ref
	if ff {
		c = fast
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(20_000)
	}
	b.ReportMetric(float64(c.Cycle())/float64(b.Elapsed().Nanoseconds()), "cycles/ns")
}

// BenchmarkCoreRun measures the regimes the fast-forward engine targets,
// each with the reference loop and the fast-forward engine. The SMT2 pairs
// cover stall-dominated (backend pair), steady dispatch (low-event pair) and
// mixed (phase-flipping pair) execution; the smt2-solo regimes run one app
// on an SMT2 core with the other slot idle (the configuration isolated
// training profiles run in). All SMT2 regimes exercise the unrolled span
// layout; the smt1 and smt4 regimes exercise the slice-based one.
func BenchmarkCoreRun(b *testing.B) {
	regimes := []struct {
		name  string
		level int
		mix   []string
	}{
		{"stalled", 2, []string{"lbm_r", "milc"}},
		{"steady", 2, []string{"exchange2_r", "nab_r"}},
		{"mixed", 2, []string{"leela_r", "mcf"}},
		{"smt2-solo-backend", 2, []string{"mcf"}},
		{"smt2-solo-frontend", 2, []string{"gobmk"}},
		{"smt1-backend", 1, []string{"mcf"}},
		{"smt1-frontend", 1, []string{"gobmk"}},
		{"smt4-mixed", 4, []string{"lbm_r", "gobmk", "mcf", "exchange2_r"}},
	}
	for _, r := range regimes {
		for _, ff := range []bool{false, true} {
			label := "ref"
			if ff {
				label = "ff"
			}
			b.Run(r.name+"/"+label, func(b *testing.B) {
				benchCoreRun(b, r.level, r.mix, ff)
			})
		}
	}
}
