package machine

import (
	"reflect"
	"testing"
)

// smt4Config is a 2-core SMT4 machine (8 hardware threads, equal capacity
// to the default 4-core SMT2 test machine).
func smt4Config() Config {
	cfg := testConfig()
	cfg.Cores = 2
	cfg.Core.SMTLevel = 4
	return cfg
}

// TestRunSMT4CompletesWorkload is the closed-system SMT4 end-to-end: 8 apps
// on 2 SMT4 cores run to completion under the arrival-order policy.
func TestRunSMT4CompletesWorkload(t *testing.T) {
	m, err := New(smt4Config())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Config().HWThreads(); got != 8 {
		t.Fatalf("HWThreads = %d, want 8", got)
	}
	models := nModels(8)
	targets := make([]uint64, 8)
	for i := range targets {
		targets[i] = 40_000
	}
	res, err := m.Run(models, targets, staticPolicy{}, RunnerOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCompleted {
		t.Fatal("SMT4 workload did not complete")
	}
	for _, p := range res.Placements {
		if err := p.Validate(2, 4); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunSMT4RejectsOverflow pins the hardware-thread accounting: a 2-core
// SMT4 machine takes 8 apps, not 9, and a placement putting 5 on one core
// is invalid.
func TestRunSMT4RejectsOverflow(t *testing.T) {
	m, err := New(smt4Config())
	if err != nil {
		t.Fatal(err)
	}
	models := nModels(9)
	targets := make([]uint64, 9)
	if _, err := m.Run(models, targets, staticPolicy{}, RunnerOptions{Seed: 1}); err == nil {
		t.Fatal("9 apps on 8 hardware threads accepted")
	}
}

// TestRunSMT4Deterministic pins run-to-run reproducibility at SMT4.
func TestRunSMT4Deterministic(t *testing.T) {
	run := func() *Result {
		m, err := New(smt4Config())
		if err != nil {
			t.Fatal(err)
		}
		models := nModels(8)
		targets := make([]uint64, 8)
		for i := range targets {
			targets[i] = 30_000
		}
		res, err := m.Run(models, targets, staticPolicy{}, RunnerOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Apps, b.Apps) {
		t.Fatalf("SMT4 runs diverged:\n%v\n%v", a.Apps, b.Apps)
	}
}

// TestRunPairSMTAtSMT1 pins the training-path guard: pair collection needs
// two thread slots, so an SMT1 machine configuration must not panic the
// §IV-C collector — RunPinned raises its private core to SMT2.
func TestRunPairSMTAtSMT1(t *testing.T) {
	cfg := testConfig()
	cfg.Core.SMTLevel = 1
	models := nModels(2)
	runs, err := RunPinned(models[:2], []uint64{1, 2}, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || len(runs[0]) != 3 || len(runs[1]) != 3 {
		t.Fatalf("got %d runs, want 2 of 3 samples", len(runs))
	}
}

// TestRunDynamicSMT4 exercises the open-system runner at SMT4: arrivals,
// partial occupancy (1..8 residents over 2 cores) and departures.
func TestRunDynamicSMT4(t *testing.T) {
	cfg := smt4Config()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models := nModels(8)
	work := make([]DynamicApp, 8)
	for i := range work {
		work[i] = DynamicApp{
			Model:    models[i],
			Target:   25_000,
			ArriveAt: uint64(i) * cfg.QuantumCycles / 2,
		}
	}
	res, err := m.RunDynamic(work, spreadPolicy{}, DynamicOptions{Seed: 3, RecordPlacements: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCompleted {
		t.Fatal("SMT4 dynamic run did not complete")
	}
	if res.PeakLiveApps < 3 {
		t.Fatalf("peak live apps %d; arrivals never overlapped", res.PeakLiveApps)
	}
	for _, p := range res.Placements {
		load := map[int]int{}
		for _, c := range p {
			if c >= 0 {
				load[c]++
			}
		}
		for c, l := range load {
			if l > 4 {
				t.Fatalf("core %d holds %d apps at SMT4", c, l)
			}
		}
	}
}
