package fleet

// Differential gates for the fleet-wide shared prediction cache: a shared
// concurrent cache, private per-machine caches and no cache at all must
// produce bit-identical fleet reports at every worker count — the
// bit-identity-by-construction claim of internal/predcache extended to
// concurrent sharing. Run under -race in CI, these tests are also the
// fleet-level race gate for the shared path.

import (
	"reflect"
	"testing"

	"synpa/internal/core"
	"synpa/internal/machine"
	"synpa/internal/predcache"
)

// runSYNPAFleet runs the standard scenario with real SYNPA policies (the
// only policies with a prediction cache) in the given cache mode:
// "private" (per-machine caches), "shared" (one fleet-wide concurrent
// cache) or "disabled".
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
			opt := core.PolicyOptions{}
			if mode == "disabled" {
				opt.Cache.Disabled = true
			}
			return core.MustPolicy(core.PaperCoefficients(), opt)
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
	base := runSYNPAFleet(t, 1, "private")
	if base.PredCache.InvertHits+base.PredCache.InvertMisses == 0 {
		t.Fatal("private-cache run reports no cache traffic — the differential is vacuous")
	}
	if base.PredCache.Shared {
		t.Fatal("private-cache run marked Shared")
	}
	want := normalizeCacheReport(base)
	for _, workers := range []int{1, 4} {
		for _, mode := range []string{"private", "shared", "disabled"} {
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

// TestPredCacheReportAggregation pins the satellite claim directly: fleet
// runs surface the per-machine cache traffic (previously dropped on the
// floor) in Report.PredCache, with entry counts, in both cache modes.
func TestPredCacheReportAggregation(t *testing.T) {
	priv := runSYNPAFleet(t, 1, "private")
	pc := priv.PredCache
	if pc.InvertMisses == 0 {
		t.Fatalf("no misses recorded: %+v", pc)
	}
	if pc.InvertEntries == 0 {
		t.Fatalf("no resident entries recorded: %+v", pc)
	}
	// Private mode: every distinct key was missed once per machine that
	// saw it, so entries never exceed misses.
	if pc.InvertEntries > int(pc.InvertMisses) {
		t.Fatalf("entries exceed misses: %+v", pc)
	}

	sh := runSYNPAFleet(t, 1, "shared")
	spc := sh.PredCache
	if !spc.Shared || spc.InvertEntries == 0 {
		t.Fatalf("shared aggregation broken: %+v", spc)
	}
	// One warm cache across machines cannot miss more often than three
	// cold private ones at the same decision sequence.
	if spc.InvertMisses > pc.InvertMisses {
		t.Fatalf("shared cache missed more than private caches: shared %+v private %+v", spc, pc)
	}
}
