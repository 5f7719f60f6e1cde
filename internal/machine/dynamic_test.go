package machine

import (
	"reflect"
	"testing"

	"synpa/internal/apps"
)

// spreadPolicy places live apps two per core in index order, like the
// arrival-order baseline but rebuilt every slice. It exercises partial and
// odd occupancy without importing the sched package (which imports this
// one).
type spreadPolicy struct{}

func (spreadPolicy) Name() string { return "spread" }
func (spreadPolicy) Place(st *QuantumState) Placement {
	p := make(Placement, st.NumApps)
	for i := range p {
		p[i] = (i / st.ThreadsPerCore()) % st.NumCores
	}
	return p
}

func mustApp(t *testing.T, name string) *apps.Model {
	t.Helper()
	m, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// dynWork builds the canonical churn scenario: four apps at t=0 (one small,
// departing early), a fifth arriving mid-run — occupancy passes through
// 4 → 5 (odd) → 4 → fewer as apps drain.
func dynWork(t *testing.T) []DynamicApp {
	t.Helper()
	return []DynamicApp{
		{Model: mustApp(t, "mcf"), Target: 400_000, ArriveAt: 0},
		{Model: mustApp(t, "leela_r"), Target: 400_000, ArriveAt: 0},
		{Model: mustApp(t, "lbm_r"), Target: 400_000, ArriveAt: 0},
		{Model: mustApp(t, "gobmk"), Target: 60_000, ArriveAt: 0},
		{Model: mustApp(t, "povray_r"), Target: 400_000, ArriveAt: 12_500}, // mid-quantum: off-quantum admission
	}
}

func TestRunDynamicChurn(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunDynamic(dynWork(t), spreadPolicy{}, DynamicOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCompleted {
		t.Fatalf("not all apps completed: %+v", res.Apps)
	}
	if res.PeakLiveApps != 5 {
		t.Fatalf("peak live apps = %d, want 5 (odd occupancy reached)", res.PeakLiveApps)
	}
	if res.Deferred != 0 {
		t.Fatalf("deferred = %d, want 0 (machine never full)", res.Deferred)
	}
	for i, a := range res.Apps {
		if a.FinishAt == 0 || a.ResponseCycles == 0 || a.IPC <= 0 {
			t.Fatalf("app %d (%s) incomplete result: %+v", i, a.Name, a)
		}
		if a.FinishAt != a.ArriveAt+a.ResponseCycles {
			t.Fatalf("app %d: FinishAt %d != ArriveAt %d + Response %d", i, a.FinishAt, a.ArriveAt, a.ResponseCycles)
		}
		if a.Retired < res.Apps[i].Target {
			t.Fatalf("app %d departed before reaching its target: %+v", i, a)
		}
		if a.AdmittedAt != a.ArriveAt {
			t.Fatalf("app %d admitted at %d, arrived %d (no queueing expected)", i, a.AdmittedAt, a.ArriveAt)
		}
	}
	// The early-departing app must finish well before the long ones.
	if res.Apps[3].FinishAt >= res.Apps[0].FinishAt {
		t.Fatalf("small app finished at %d, after big app at %d", res.Apps[3].FinishAt, res.Apps[0].FinishAt)
	}
	if res.MeanLiveApps <= 0 || res.MeanLiveApps > 5 {
		t.Fatalf("mean live apps = %v", res.MeanLiveApps)
	}
}

func TestRunDynamicDeterministic(t *testing.T) {
	run := func() *DynamicResult {
		m, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunDynamic(dynWork(t), spreadPolicy{}, DynamicOptions{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestRunDynamicOffQuantumAdmission(t *testing.T) {
	// An arrival inside a quantum must cut the slice: the closed-system
	// slice count for the same span would be lower.
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	work := []DynamicApp{
		{Model: mustApp(t, "mcf"), Target: 100_000, ArriveAt: 0},
		{Model: mustApp(t, "leela_r"), Target: 100_000, ArriveAt: 7_300}, // mid-quantum
	}
	res, err := m.RunDynamic(work, spreadPolicy{}, DynamicOptions{Seed: 1, RecordPlacements: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCompleted {
		t.Fatal("apps did not complete")
	}
	if res.Apps[1].AdmittedAt != 7_300 {
		t.Fatalf("arrival admitted at %d, want exactly 7300 (off-quantum)", res.Apps[1].AdmittedAt)
	}
	// The recorded placements must show a one-app slice before admission.
	if len(res.Placements) < 2 {
		t.Fatalf("placements = %v", res.Placements)
	}
	if res.Placements[0][1] != Unplaced {
		t.Fatalf("app 1 placed before arriving: %v", res.Placements[0])
	}
	if res.Placements[len(res.Placements)-1] == nil {
		t.Fatal("missing placements")
	}
}

func TestRunDynamicQueueing(t *testing.T) {
	// Ten arrivals at t=0 on 8 hardware threads: two must queue and be
	// admitted only when a thread frees.
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var work []DynamicApp
	for i := 0; i < 10; i++ {
		work = append(work, DynamicApp{Model: mustApp(t, "gobmk"), Target: 50_000, ArriveAt: 0})
	}
	res, err := m.RunDynamic(work, spreadPolicy{}, DynamicOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCompleted {
		t.Fatal("apps did not complete")
	}
	if res.Deferred != 2 {
		t.Fatalf("deferred = %d, want 2", res.Deferred)
	}
	if res.PeakLiveApps != 8 {
		t.Fatalf("peak live = %d, want 8 (capacity)", res.PeakLiveApps)
	}
	deferred := 0
	for _, a := range res.Apps {
		if a.AdmittedAt > a.ArriveAt {
			deferred++
			if a.ResponseCycles <= a.FinishAt-a.AdmittedAt {
				t.Fatalf("response %d must include queueing (admitted %d)", a.ResponseCycles, a.AdmittedAt)
			}
		}
	}
	if deferred != 2 {
		t.Fatalf("%d apps have AdmittedAt > ArriveAt, want 2", deferred)
	}
}

func TestRunDynamicIdleGap(t *testing.T) {
	// A gap with zero live apps: the run must fast-forward to the next
	// arrival instead of terminating or spinning.
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	work := []DynamicApp{
		{Model: mustApp(t, "gobmk"), Target: 20_000, ArriveAt: 0},
		{Model: mustApp(t, "gobmk"), Target: 20_000, ArriveAt: 500_000},
	}
	res, err := m.RunDynamic(work, spreadPolicy{}, DynamicOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCompleted {
		t.Fatal("apps did not complete")
	}
	if res.Apps[1].AdmittedAt != 500_000 {
		t.Fatalf("second app admitted at %d, want 500000", res.Apps[1].AdmittedAt)
	}
	if res.Apps[0].FinishAt >= res.Apps[1].ArriveAt && res.MeanLiveApps >= 1 {
		t.Fatalf("idle gap not reflected: finish0=%d meanLive=%v", res.Apps[0].FinishAt, res.MeanLiveApps)
	}
}

func TestRunDynamicErrors(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunDynamic(nil, spreadPolicy{}, DynamicOptions{}); err == nil {
		t.Fatal("empty workload accepted")
	}
	if _, err := m.RunDynamic(dynWork(t), nil, DynamicOptions{}); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := m.RunDynamic([]DynamicApp{{Model: mustApp(t, "mcf"), Target: 0}}, spreadPolicy{}, DynamicOptions{}); err == nil {
		t.Fatal("zero target accepted: open-system jobs must be finite")
	}
}

func TestRunDynamicBound(t *testing.T) {
	// A run bound smaller than the work: report AllCompleted=false with
	// partial results, not an error.
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	work := []DynamicApp{{Model: mustApp(t, "mcf"), Target: 1 << 60, ArriveAt: 0}}
	res, err := m.RunDynamic(work, spreadPolicy{}, DynamicOptions{Seed: 4, MaxCycles: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllCompleted {
		t.Fatal("impossible target reported complete")
	}
	if res.Apps[0].FinishAt != 0 || res.Apps[0].Retired == 0 {
		t.Fatalf("unfinished app result: %+v", res.Apps[0])
	}
	if res.Cycles != 50_000 {
		t.Fatalf("cycles = %d, want bound 50000", res.Cycles)
	}
}

func TestRunDynamicNeverAdmittedCountsDeferred(t *testing.T) {
	// Nine long jobs at t=0 on 8 hardware threads with a bound too tight
	// for any departure: the ninth queues to the end without a thread and
	// must still be counted as deferred, with Admitted=false.
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var work []DynamicApp
	for i := 0; i < 9; i++ {
		work = append(work, DynamicApp{Model: mustApp(t, "mcf"), Target: 1 << 60, ArriveAt: 0})
	}
	res, err := m.RunDynamic(work, spreadPolicy{}, DynamicOptions{Seed: 5, MaxCycles: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deferred != 1 {
		t.Fatalf("deferred = %d, want 1 (the never-admitted ninth arrival)", res.Deferred)
	}
	admitted := 0
	for _, a := range res.Apps {
		if a.Admitted {
			admitted++
		}
	}
	if admitted != 8 {
		t.Fatalf("admitted = %d, want 8", admitted)
	}
}

// TestReusedMachineStartsEmpty runs a dynamic workload on a machine an
// earlier closed Run left fully bound, and demands the per-job outcomes of
// a fresh machine: a runner must start with every core's threads empty, or
// the earlier run's instances keep running beside the new jobs.
func TestReusedMachineStartsEmpty(t *testing.T) {
	work := func() []DynamicApp {
		return []DynamicApp{
			{Model: mustApp(t, "mcf"), Target: 100_000},
			{Model: mustApp(t, "leela_r"), Target: 100_000},
			{Model: mustApp(t, "lbm_r"), Target: 100_000, ArriveAt: 7_500},
		}
	}
	fresh, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RunDynamic(work(), fillPolicy{}, DynamicOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	reused, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"mcf", "leela_r", "lbm_r", "gobmk", "povray_r", "milc", "namd_r", "perlbench"}
	models := make([]*apps.Model, len(names))
	targets := make([]uint64, len(names))
	for i, name := range names {
		models[i], targets[i] = mustApp(t, name), 1<<40
	}
	if _, err := reused.Run(models, targets, spreadPolicy{}, RunnerOptions{Seed: 1, MaxQuanta: 3}); err != nil {
		t.Fatal(err)
	}
	got, err := reused.RunDynamic(work(), fillPolicy{}, DynamicOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Apps {
		if got.Apps[i].ResponseCycles != want.Apps[i].ResponseCycles || got.Apps[i].Retired != want.Apps[i].Retired {
			t.Errorf("%s on a reused machine: response %d, retired %d; fresh machine: %d, %d",
				want.Apps[i].Name, got.Apps[i].ResponseCycles, got.Apps[i].Retired,
				want.Apps[i].ResponseCycles, want.Apps[i].Retired)
		}
	}
}
