package main

import (
	"encoding/json"
	"testing"
	"time"

	"synpa/internal/core"
	"synpa/synpa"
)

// TestTimedPolicyIsTransparent checks that timing Place from outside
// changes nothing the program computes: wrapped and unwrapped runs give
// identical results, and the fleet still reaches the wrapped policy's
// cache methods (identical PredCache accounting, a shared cache that
// actually serves). Run it under -race: fleet workers call the machines'
// policies from several goroutines.
func TestTimedPolicyIsTransparent(t *testing.T) {
	sz := sizes["tiny"]
	model, err := trainModel(sz, newSpanLog())
	if err != nil {
		t.Fatal(err)
	}
	cfg := systemConfig(sz, 4, 2, nil)
	cfg.Workers = 4
	sys, err := synpa.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	fb2 := sys.StandardWorkloads()["fb2"]
	plainRun, err := sys.Run(fb2, sys.SYNPAPolicy(model))
	if err != nil {
		t.Fatal(err)
	}
	wrapped := newTimedPolicy(sys, model, newSpanLog(), 1)
	wrappedRun, err := sys.Run(fb2, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := reportLine("fb2", plainRun), reportLine("fb2", wrappedRun); a != b {
		t.Errorf("closed run differs when wrapped:\n%s\n%s", a, b)
	}
	if len(wrapped.lat) != wrappedRun.Quanta {
		t.Errorf("timed %d Place calls over %d quanta", len(wrapped.lat), wrappedRun.Quanta)
	}

	e := env{seed: 7, size: sz}
	for _, shared := range []bool{false, true} {
		fleet := func(wrap bool) (*synpa.FleetReport, *synpa.SharedPredCache) {
			fc := synpa.FleetConfig{
				Machines: sz.fleetMachines,
				Dispatch: synpa.DispatchInterference,
				Model:    model,
				NewPolicy: func(int) synpa.Policy {
					if wrap {
						return newTimedPolicy(sys, model, newSpanLog(), 1)
					}
					return sys.SYNPAPolicy(model).(*core.Policy)
				},
			}
			if shared {
				fc.SharedCache = synpa.NewSharedPredCache(synpa.PredCacheOptions{}, 0)
			}
			rep, err := sys.RunFleet(fc, fleetStream(e))
			if err != nil {
				t.Fatal(err)
			}
			return rep, fc.SharedCache
		}
		plain, _ := fleet(false)
		got, cache := fleet(true)
		pj, _ := json.Marshal(plain)
		gj, _ := json.Marshal(got)
		if string(pj) != string(gj) {
			t.Errorf("shared=%v: fleet report differs when wrapped:\n%s\n%s", shared, pj, gj)
		}
		if !shared && got.PredCache.InvertMisses == 0 {
			t.Errorf("wrapped fleet reports no predcache traffic: %+v", got.PredCache)
		}
		if shared {
			if inv, _ := cache.Stats(); inv.Misses == 0 {
				t.Errorf("shared cache never reached the wrapped policies: %+v", inv)
			}
		}
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that the output checks pass and every named metric is printed
// with its unit.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			e := env{workload: name, seed: 3, seconds: time.Second, trace: trace, size: sizes["tiny"], spanDir: t.TempDir()}
			res, lines, err := run(e, "..")
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d; %v", name, trace, res.Correct, res.Failed, res.Attempted, lines)
			}
			want := e2eMetrics
			if trace {
				want = layerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.name, got, m.unit)
				}
			}
		}
	}
}
