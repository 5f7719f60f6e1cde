package machine

import (
	"testing"

	"synpa/internal/apps"
	"synpa/internal/pmu"
	"synpa/internal/smtcore"
)

// staticPolicy is the simplest placement: app i on core i mod cores,
// fixed forever (arrival-order pairing, like the Linux baseline).
type staticPolicy struct{}

func (staticPolicy) Name() string { return "static-test" }
func (staticPolicy) Place(st *QuantumState) Placement {
	if st.Prev != nil {
		return st.Prev
	}
	p := make(Placement, st.NumApps)
	for i := range p {
		p[i] = i % st.NumCores
	}
	return p
}

// fourModels returns n models cycling over a mixed set.
func nModels(n int) []*apps.Model {
	names := []string{"mcf", "leela_r", "lbm_r", "gobmk", "cactuBSSN_r", "perlbench", "milc", "astar"}
	out := make([]*apps.Model, n)
	for i := range out {
		m, err := apps.ByName(names[i%len(names)])
		if err != nil {
			panic(err)
		}
		out[i] = m
	}
	return out
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.QuantumCycles = 5_000
	cfg.Parallel = false
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Fatal("zero cores accepted")
	}
	bad = DefaultConfig()
	bad.QuantumCycles = 10
	if bad.Validate() == nil {
		t.Fatal("tiny quantum accepted")
	}
	bad = DefaultConfig()
	bad.Core.DispatchWidth = 0
	if bad.Validate() == nil {
		t.Fatal("bad core config accepted")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted zero config")
	}
}

func TestPlacementValidate(t *testing.T) {
	if err := (Placement{0, 0, 1, 1}).Validate(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := (Placement{0, 0, 0}).Validate(2, 2); err == nil {
		t.Fatal("3 apps on one core accepted")
	}
	if err := (Placement{0, 2}).Validate(2, 2); err == nil {
		t.Fatal("out-of-range core accepted")
	}
	if err := (Placement{-1}).Validate(2, 2); err == nil {
		t.Fatal("negative core accepted")
	}
}

func TestPlacementHelpers(t *testing.T) {
	p := Placement{0, 1, 0, 1}
	pairs := p.PairsOf(2, nil)
	if len(pairs[0]) != 2 || pairs[0][0] != 0 || pairs[0][1] != 2 {
		t.Fatalf("PairsOf core0 = %v", pairs[0])
	}
	if p.CoMate(0) != 2 || p.CoMate(2) != 0 || p.CoMate(1) != 3 {
		t.Fatal("CoMate wrong")
	}
	solo := Placement{0, 1}
	if solo.CoMate(0) != -1 {
		t.Fatal("solo app should have no co-mate")
	}
	c := p.Clone()
	c[0] = 9
	if p[0] == 9 {
		t.Fatal("Clone did not copy")
	}
}

func TestRunCompletesWorkload(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	models := nModels(8)
	targets := make([]uint64, 8)
	for i := range targets {
		targets[i] = 40_000 // small targets so the test is fast
	}
	res, err := m.Run(models, targets, staticPolicy{}, RunnerOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCompleted {
		t.Fatal("workload did not complete")
	}
	tt, ok := res.TurnaroundCycles()
	if !ok || tt == 0 {
		t.Fatal("no turnaround time")
	}
	for i, a := range res.Apps {
		if a.CompletedAtCycle == 0 || a.CompletedAtCycle > tt {
			t.Errorf("app %d completion %d out of range", i, a.CompletedAtCycle)
		}
		if a.IPC <= 0 {
			t.Errorf("app %d IPC = %v", i, a.IPC)
		}
		if a.Retired < a.Target {
			t.Errorf("app %d retired %d < target %d", i, a.Retired, a.Target)
		}
	}
	if res.Quanta == 0 || len(res.Placements) != res.Quanta {
		t.Fatalf("placements %d, quanta %d", len(res.Placements), res.Quanta)
	}
}

func TestRunRecordsTrace(t *testing.T) {
	m, _ := New(testConfig())
	models := nModels(4)
	targets := []uint64{30_000, 30_000, 30_000, 30_000}
	res, err := m.Run(models, targets, staticPolicy{}, RunnerOptions{Seed: 2, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != res.Quanta {
		t.Fatalf("trace has %d quanta, want %d", len(res.Samples), res.Quanta)
	}
	for q, row := range res.Samples {
		if len(row) != len(models) {
			t.Fatalf("quantum %d trace has %d apps", q, len(row))
		}
		var cycles uint64
		for _, c := range row {
			cycles += c[pmu.CPUCycles]
		}
		if cycles == 0 {
			t.Fatalf("quantum %d trace empty", q)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() uint64 {
		m, _ := New(testConfig())
		models := nModels(8)
		targets := make([]uint64, 8)
		for i := range targets {
			targets[i] = 30_000
		}
		res, err := m.Run(models, targets, staticPolicy{}, RunnerOptions{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		tt, _ := res.TurnaroundCycles()
		return tt
	}
	if run() != run() {
		t.Fatal("same seed gave different turnaround times")
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	run := func(parallel bool) uint64 {
		cfg := testConfig()
		cfg.Parallel = parallel
		m, _ := New(cfg)
		models := nModels(8)
		targets := make([]uint64, 8)
		for i := range targets {
			targets[i] = 30_000
		}
		res, err := m.Run(models, targets, staticPolicy{}, RunnerOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		tt, _ := res.TurnaroundCycles()
		return tt
	}
	if run(false) != run(true) {
		t.Fatal("parallel execution changed the simulation result")
	}
}

func TestRunErrors(t *testing.T) {
	m, _ := New(testConfig())
	if _, err := m.Run(nil, nil, staticPolicy{}, RunnerOptions{}); err == nil {
		t.Fatal("empty workload accepted")
	}
	if _, err := m.Run(nModels(2), []uint64{1}, staticPolicy{}, RunnerOptions{}); err == nil {
		t.Fatal("target/model mismatch accepted")
	}
	if _, err := m.Run(nModels(9), make([]uint64, 9), staticPolicy{}, RunnerOptions{}); err == nil {
		t.Fatal("oversubscription accepted")
	}
	if _, err := m.Run(nModels(2), make([]uint64, 2), nil, RunnerOptions{}); err == nil || err.Error() != "machine: nil policy" {
		t.Fatalf("nil policy: err = %v", err)
	}
	models := nModels(3)
	models[1] = nil
	if _, err := m.Run(models, make([]uint64, 3), staticPolicy{}, RunnerOptions{}); err == nil || err.Error() != "machine: app 1 has no model" {
		t.Fatalf("nil model: err = %v", err)
	}
}

type badPolicy struct{ wrongLen bool }

func (badPolicy) Name() string { return "bad" }
func (b badPolicy) Place(st *QuantumState) Placement {
	if b.wrongLen {
		return Placement{0}
	}
	return Placement{0, 0, 0, 0, 0, 0, 0, 0} // 8 apps on core 0
}

func TestRunRejectsBadPolicies(t *testing.T) {
	m, _ := New(testConfig())
	models := nModels(8)
	targets := make([]uint64, 8)
	if _, err := m.Run(models, targets, badPolicy{wrongLen: true}, RunnerOptions{}); err == nil {
		t.Fatal("wrong-length placement accepted")
	}
	if _, err := m.Run(models, targets, badPolicy{}, RunnerOptions{}); err == nil {
		t.Fatal("overloaded placement accepted")
	}
}

func TestMaxQuantaBoundsRun(t *testing.T) {
	m, _ := New(testConfig())
	models := nModels(8)
	targets := make([]uint64, 8)
	for i := range targets {
		targets[i] = 1 << 60 // unreachable
	}
	res, err := m.Run(models, targets, staticPolicy{}, RunnerOptions{Seed: 1, MaxQuanta: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quanta != 5 {
		t.Fatalf("ran %d quanta, want 5", res.Quanta)
	}
	if res.AllCompleted {
		t.Fatal("cannot have completed unreachable targets")
	}
	if _, ok := res.TurnaroundCycles(); ok {
		t.Fatal("TurnaroundCycles should report incomplete")
	}
}

func TestZeroTargetAppsNeverComplete(t *testing.T) {
	m, _ := New(testConfig())
	models := nModels(2)
	res, err := m.Run(models, []uint64{20_000, 0}, staticPolicy{}, RunnerOptions{Seed: 3, MaxQuanta: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps[0].CompletedAtCycle == 0 {
		t.Fatal("app 0 should complete")
	}
	if res.Apps[1].CompletedAtCycle != 0 {
		t.Fatal("zero-target app must not complete")
	}
}

func TestRelaunchKeepsPressure(t *testing.T) {
	// After completing, an app is relaunched and keeps retiring
	// instructions well beyond its target.
	m, _ := New(testConfig())
	models := nModels(2)
	res, err := m.Run(models, []uint64{10_000, 200_000}, staticPolicy{}, RunnerOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	fast := res.Apps[0]
	if !res.AllCompleted {
		t.Fatal("workload should complete")
	}
	if fast.Retired < 3*fast.Target {
		t.Fatalf("fast app retired only %d (target %d); relaunching is not keeping pressure",
			fast.Retired, fast.Target)
	}
}

func TestRunIsolated(t *testing.T) {
	mod, _ := apps.ByName("mcf")
	samples, err := RunIsolated(mod, 9, 10, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 {
		t.Fatalf("got %d samples", len(samples))
	}
	for q, s := range samples {
		if s[pmu.CPUCycles] != 5_000 {
			t.Fatalf("quantum %d cycles = %d", q, s[pmu.CPUCycles])
		}
		if s[pmu.InstSpec] == 0 {
			t.Fatalf("quantum %d dispatched nothing", q)
		}
	}
}

func TestRunPairSMT(t *testing.T) {
	a, _ := apps.ByName("mcf")
	b, _ := apps.ByName("leela_r")
	sa, sb, err := RunPairSMT(a, b, 1, 2, 8, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) != 8 || len(sb) != 8 {
		t.Fatalf("got %d/%d samples", len(sa), len(sb))
	}
	for q := range sa {
		if sa[q][pmu.CPUCycles] != 5_000 || sb[q][pmu.CPUCycles] != 5_000 {
			t.Fatalf("quantum %d cycle counts wrong", q)
		}
	}
}

func TestStablePairingPreservesPipelineState(t *testing.T) {
	// With a static policy the cores must not be rebound between quanta:
	// verify via the smtcore Instance identity remaining bound.
	cfg := testConfig()
	m, _ := New(cfg)
	models := nModels(8)
	targets := make([]uint64, 8)
	res, err := m.Run(models, targets, staticPolicy{}, RunnerOptions{Seed: 5, MaxQuanta: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quanta != 3 {
		t.Fatalf("quanta = %d", res.Quanta)
	}
	for c := 0; c < m.NumCores(); c++ {
		if m.cores[c].Instance(0) == nil || m.cores[c].Instance(1) == nil {
			t.Fatalf("core %d lost its bindings", c)
		}
	}
	_ = smtcore.DefaultSMTLevel
}
