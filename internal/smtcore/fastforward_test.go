package smtcore

import (
	"fmt"
	"math"
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

// coreRunRegimes are the regimes the fast-forward engine targets. The SMT2
// pairs cover stall-dominated (backend pair), steady dispatch (low-event
// pair) and mixed (phase-flipping pair) execution; the smt2-solo regimes run
// one app on an SMT2 core with the other slot idle (the configuration
// isolated training profiles run in). All SMT2 regimes exercise the unrolled
// span layout; the smt1 and smt4 regimes exercise the slice-based one.
var coreRunRegimes = []struct {
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

// BenchmarkCoreRun measures each of coreRunRegimes with the reference loop
// and with the fast-forward engine.
func BenchmarkCoreRun(b *testing.B) {
	for _, r := range coreRunRegimes {
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

// TestCoreRunEngineStatsPinned pins the tier split of 200,000 cycles of each
// BenchmarkCoreRun regime at the values the engine recorded before dormant
// windows were applied inside spans. Applying them in place moves work
// between code paths but must not move a single cycle between the span and
// the bulk tier: the same windows are skipped at the same cycles.
func TestCoreRunEngineStatsPinned(t *testing.T) {
	want := map[string]EngineStats{
		"stalled":            {SpanCycles: 44304, FFCycles: 155696},
		"steady":             {SpanCycles: 181556, FFCycles: 18444},
		"mixed":              {SpanCycles: 94128, FFCycles: 105872},
		"smt2-solo-backend":  {SpanCycles: 41306, FFCycles: 158694},
		"smt2-solo-frontend": {SpanCycles: 103692, FFCycles: 96308},
		"smt1-backend":       {SpanCycles: 41306, FFCycles: 158694},
		"smt1-frontend":      {SpanCycles: 103692, FFCycles: 96308},
		"smt4-mixed":         {SpanCycles: 126034, FFCycles: 73966},
	}
	for _, r := range coreRunRegimes {
		cfg := DefaultConfig()
		cfg.SMTLevel = r.level
		_, fast, _, err := newDiffCoresCfg(cfg, r.mix, 3)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 10; q++ {
			fast.Run(20_000)
		}
		if got := fast.EngineStats(); got != want[r.name] {
			t.Errorf("%s: tier split %+v, want %+v", r.name, got, want[r.name])
		}
	}
}

// BenchmarkSpanFixedCost measures what a span costs apart from its cycles,
// on the mixed SMT2 pair (unrolled layout) and the SMT4 mix (slice layout),
// each warmed by 100,000 cycles. "hoist-flush" is a zero-cycle span: it
// loads the core's state into the span locals, runs no cycle and flushes
// the counters, so every iteration repeats the same work on unchanged
// state. "rescreen" is one Tier-1 fastForward call on a state it declines,
// the attempt a span makes in place whenever it goes dormant or completes
// a contention streak.
func BenchmarkSpanFixedCost(b *testing.B) {
	for _, r := range coreRunRegimes {
		if r.name != "mixed" && r.name != "smt4-mixed" {
			continue
		}
		cfg := DefaultConfig()
		cfg.SMTLevel = r.level
		_, c, _, err := newDiffCoresCfg(cfg, r.mix, 3)
		if err != nil {
			b.Fatal(err)
		}
		c.Run(100_000)
		b.Run(r.name+"/hoist-flush", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.runSpanLite(0)
			}
		})
		for c.fastForward(1) > 0 {
		}
		b.Run(r.name+"/rescreen", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if c.fastForward(1<<20) != 0 {
					b.Fatal("Tier 1 advanced a state it declined before")
				}
			}
		})
	}
}

// ffPrefix returns how many of the first b cycles of one Run from a fresh
// fast core are Tier-1 cycles. A Run of b cycles takes the same decisions
// as a longer one up to cycle b, so the difference ffPrefix(b) −
// ffPrefix(b−1) classifies cycle b−1 of that longer run.
func ffPrefix(t *testing.T, cfg Config, mix []string, seed, b uint64) uint64 {
	t.Helper()
	_, fast, _, err := newDiffCoresCfg(cfg, mix, seed)
	if err != nil {
		t.Fatal(err)
	}
	fast.Run(b)
	return fast.EngineStats().FFCycles
}

// TestFastForwardQuantumInDormantWindow pins the engine to step() when a
// quantum budget ends inside a dormant window that a span skips in place,
// and when it ends on the window's last cycle, at SMT levels 1–4. The
// next quantum then starts mid-window or right after it, and a rebind
// between later quanta refreshes the rates and caps under the engine.
func TestFastForwardQuantumInDormantWindow(t *testing.T) {
	cases := []struct {
		level int
		mix   []string
	}{
		{1, []string{"mcf"}},
		{2, []string{"lbm_r", "milc"}},
		{3, []string{"mcf", "lbm_r", "gobmk"}},
		{4, []string{"lbm_r", "gobmk", "mcf", "exchange2_r"}},
	}
	const seed, horizon = 5, 3_000
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.SMTLevel = c.level
		// Classify the first horizon cycles of one long Run. A Tier-1
		// cycle preceded by a span cycle starts a window skipped in place.
		ff := make([]bool, horizon+1)
		prev := uint64(0)
		for b := uint64(1); b <= horizon; b++ {
			f := ffPrefix(t, cfg, c.mix, seed, b)
			ff[b-1] = f > prev
			prev = f
		}
		var inside, after uint64
		for b := uint64(2); b < horizon && (inside == 0 || after == 0); b++ {
			start := b - 1
			for start > 0 && ff[start-1] {
				start--
			}
			if !ff[b-1] || start == 0 {
				continue
			}
			if ff[b] && inside == 0 && b-start >= 2 {
				inside = b
			}
			if !ff[b] && after == 0 {
				after = b
			}
		}
		if inside == 0 || after == 0 {
			t.Fatalf("smt%d %v: no in-place dormant window in the first %d cycles (inside=%d, after=%d)",
				c.level, c.mix, horizon, inside, after)
		}
		for _, first := range []uint64{inside, after} {
			t.Run(fmt.Sprintf("smt%d/first=%d", c.level, first), func(t *testing.T) {
				ref, fast, slots, err := newDiffCoresCfg(cfg, c.mix, seed)
				if err != nil {
					t.Fatal(err)
				}
				assertLockstep(t, ref, fast, slots, 1, first)
				assertLockstep(t, ref, fast, slots, 3, 5_000)
				// Rebind slot 0 to a fresh application between quanta.
				m, err := apps.ByName("milc")
				if err != nil {
					t.Fatal(err)
				}
				p := enginePair{
					refInst:  apps.NewInstance(m, 321),
					fastInst: apps.NewInstance(m, 321),
					refBank:  newBank(t),
					fastBank: newBank(t),
				}
				ref.Bind(0, p.refInst, p.refBank)
				fast.Bind(0, p.fastInst, p.fastBank)
				slots[0] = p
				assertLockstep(t, ref, fast, slots, 3, 4_999)
			})
		}
	}
}

// TestILPFracInCarryRange checks the precondition of the span tier's
// branchless ILP carry (ilpCarry): for every phase of every catalogue
// application the dither increment lies in [0, 1), so the accumulator
// stays in [0, 2) and its bit pattern orders as its value does.
func TestILPFracInCarryRange(t *testing.T) {
	for _, m := range apps.Catalog() {
		for i, ph := range m.Phases {
			frac := ph.Profile.ILP - float64(int(ph.Profile.ILP))
			if !(frac >= 0 && frac < 1) {
				t.Errorf("%s phase %d: ILP %v gives ilpFrac %v outside [0, 1)", m.Name, i, ph.Profile.ILP, frac)
			}
		}
		c := New(0, DefaultConfig())
		c.Bind(0, apps.NewInstance(m, 1), newBank(t))
		if got, want := c.threads[0].ilpFrac, m.Phases[0].Profile.ILP-float64(int(m.Phases[0].Profile.ILP)); got != want {
			t.Errorf("%s: bound ilpFrac %v, want %v", m.Name, got, want)
		}
	}
}

// TestILPCarry checks ilpCarry against the comparison it replaces at and
// around the carry threshold and across the accumulator's range.
func TestILPCarry(t *testing.T) {
	accs := []float64{0, math.SmallestNonzeroFloat64, 0.5, math.Nextafter(1, 0), 1,
		math.Nextafter(1, 2), 1.5, math.Nextafter(2, 0)}
	for _, acc := range accs {
		want := 0
		if acc >= 1 {
			want = 1
		}
		if got := ilpCarry(acc); got != want {
			t.Errorf("ilpCarry(%v) = %d, want %d", acc, got, want)
		}
		if got := acc - float64(ilpCarry(acc)); want == 0 && math.Float64bits(got) != math.Float64bits(acc) {
			t.Errorf("acc %v changed by a zero carry: %v", acc, got)
		}
	}
}
