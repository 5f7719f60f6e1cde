package synpa

import (
	"reflect"
	"testing"

	"synpa/internal/core"
)

// trainTiny builds a small system at the given worker count with a model
// trained on a reduced set, scaled so the differential suite stays fast
// under -race.
func trainTiny(t *testing.T, workers int) (*System, *Model) {
	t.Helper()
	sys, err := New(Config{Cores: 4, QuantumCycles: 6_000, RefQuanta: 20, Seed: 7, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := sys.TrainModel(
		[]string{"mcf", "leela_r", "lbm_r", "gobmk", "perlbench"},
		TrainOptions{IsolatedQuanta: 30, PairQuanta: 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sys, model
}

// TestRunWorkersBitIdentical pins the full public pipeline — training,
// targets, the SYNPA policy with its prediction caches, metrics — to the
// serial path: Workers=4 must reproduce Workers=1 bit for bit.
func TestRunWorkersBitIdentical(t *testing.T) {
	apps := []string{"mcf", "leela_r", "lbm_r", "gobmk", "mcf", "perlbench", "leela_r", "lbm_r"}
	var reports []*RunReport
	var models []*Model
	for _, workers := range []int{1, 4} {
		sys, model := trainTiny(t, workers)
		rep, err := sys.Run(apps, sys.SYNPAPolicy(model))
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
		models = append(models, model)
	}
	if !reflect.DeepEqual(models[0], models[1]) {
		t.Fatal("trained models diverge across worker counts")
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("run reports diverge across worker counts:\n1: %+v\n4: %+v", reports[0], reports[1])
	}
}

// TestRunDynamicWorkersBitIdentical is the open-system counterpart over a
// Poisson trace: arrivals, queueing, partial occupancy and departures must
// be bit-identical across worker counts.
func TestRunDynamicWorkersBitIdentical(t *testing.T) {
	var reports []*DynamicReport
	for _, workers := range []int{1, 4} {
		sys, model := trainTiny(t, workers)
		tr := PoissonTrace("wdiff", 5, []string{"mcf", "leela_r", "lbm_r"}, 7, 30_000, 0.4)
		rep, err := sys.RunDynamic(tr, sys.SYNPAPolicy(model))
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("dynamic reports diverge across worker counts:\n1: %+v\n4: %+v", reports[0], reports[1])
	}
}

// TestPredcacheBitIdentical pins the interference-prediction memo layer:
// the SYNPA policy with a shared memo installed must reproduce the policy
// without one bit for bit (exact keys make hits equivalent to fresh
// evaluations).
func TestPredcacheBitIdentical(t *testing.T) {
	sys, model := trainTiny(t, 1)
	apps := []string{"mcf", "leela_r", "lbm_r", "gobmk", "mcf", "perlbench", "leela_r", "lbm_r"}

	uncached, err := sys.Run(apps, sys.SYNPAPolicy(model))
	if err != nil {
		t.Fatal(err)
	}
	memo := NewSharedPredCache(PredCacheOptions{}, 0)
	pol := sys.SYNPAPolicy(model).(*core.Policy)
	pol.SetSharedCache(memo)
	cached, err := sys.Run(apps, pol)
	if err != nil {
		t.Fatal(err)
	}
	if inv, _ := memo.Stats(); inv.Misses == 0 {
		t.Fatal("the shared memo saw no lookups — the differential is vacuous")
	}
	if !reflect.DeepEqual(cached, uncached) {
		t.Fatalf("cached and uncached policies diverge:\ncached:   %+v\nuncached: %+v", cached, uncached)
	}
}
