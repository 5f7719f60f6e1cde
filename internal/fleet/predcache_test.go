package fleet

// Differential gates for the fleet-wide shared prediction cache: a shared
// concurrent cache and no cache at all must produce bit-identical fleet
// reports at every worker count — the bit-identity-by-construction claim
// of internal/predcache extended to concurrent sharing. Run under -race
// in CI, these tests are also the fleet-level race gate for the shared
// path.

import (
	"reflect"
	"testing"

	"synpa/internal/core"
	"synpa/internal/machine"
	"synpa/internal/predcache"
)

// runSYNPAFleet runs the standard scenario with real SYNPA policies (the
// only policies with a prediction cache) in the given cache mode: "none"
// (every machine inverts directly) or "shared" (one fleet-wide concurrent
// cache).
func runSYNPAFleet(t *testing.T, workers int, mode string) *Report {
	t.Helper()
	cfg := Config{
		Machines:  3,
		Machine:   testMachineConfig(),
		Dispatch:  DispatchLeastLoaded,
		Admission: "priority",
		Seed:      11,
		Workers:   workers,
		NewPolicy: func(int) machine.Policy {
			return core.MustPolicy(core.PaperCoefficients(), core.PolicyOptions{})
		},
	}
	if mode == "shared" {
		cfg.SharedCache = predcache.NewShared(predcache.Options{}, 4)
	}
	rep, err := Run(cfg, &sliceSource{jobs: testJobs(t, 48)})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// normalizeCacheReport strips the fields allowed to differ across cache
// modes and schedules: Workers echoes configuration, and PredCache's
// hit/miss split is schedule-dependent with a shared cache (racing cold
// misses) — everything else must match bit for bit.
func normalizeCacheReport(r *Report) Report {
	c := *r
	c.Workers = 0
	c.PredCache = PredCacheReport{}
	return c
}

func TestSharedCacheFleetDifferential(t *testing.T) {
	base := runSYNPAFleet(t, 1, "none")
	if base.PredCache.InvertHits+base.PredCache.InvertMisses == 0 {
		t.Fatal("run without a memo reports no inversions — the differential is vacuous")
	}
	if base.PredCache.Shared {
		t.Fatal("run without a memo marked Shared")
	}
	want := normalizeCacheReport(base)
	for _, workers := range []int{1, 4} {
		for _, mode := range []string{"none", "shared"} {
			got := runSYNPAFleet(t, workers, mode)
			if mode == "shared" {
				if !got.PredCache.Shared {
					t.Fatalf("workers=%d: shared run not marked Shared", workers)
				}
				if got.PredCache.InvertHits+got.PredCache.InvertMisses == 0 {
					t.Fatalf("workers=%d: shared cache saw no traffic", workers)
				}
			}
			if norm := normalizeCacheReport(got); !reflect.DeepEqual(norm, want) {
				t.Errorf("workers=%d mode=%s: report diverged\n got %+v\nwant %+v",
					workers, mode, norm, want)
			}
		}
	}
}

// TestPredCacheReportAggregation pins that fleet runs surface the
// per-machine inversion traffic in Report.PredCache: without a memo every
// inversion counts as a miss and nothing is resident; with a shared cache
// the whole cache's traffic and entries.
func TestPredCacheReportAggregation(t *testing.T) {
	none := runSYNPAFleet(t, 1, "none")
	pc := none.PredCache
	if pc.InvertMisses == 0 {
		t.Fatalf("no inversions recorded: %+v", pc)
	}
	if pc.InvertHits != 0 || pc.InvertEntries != 0 {
		t.Fatalf("run without a memo reports hits or entries: %+v", pc)
	}

	sh := runSYNPAFleet(t, 1, "shared")
	spc := sh.PredCache
	if !spc.Shared || spc.InvertEntries == 0 {
		t.Fatalf("shared aggregation broken: %+v", spc)
	}
	// One warm cache across machines cannot miss more often than the
	// machines invert without it at the same decision sequence.
	if spc.InvertMisses > pc.InvertMisses {
		t.Fatalf("shared cache missed more than the inversions without it: shared %+v none %+v", spc, pc)
	}
	if spc.InvertHits+spc.InvertMisses != pc.InvertMisses {
		t.Fatalf("shared lookups %+v do not match the %d inversions without a memo", spc, pc.InvertMisses)
	}
}
