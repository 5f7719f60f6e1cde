package machine_test

import (
	"testing"

	"synpa/internal/machine"
	"synpa/internal/sched"
	"synpa/internal/workload"
)

// rotator migrates the pairing every quantum: app i runs on core
// ((i+q) mod n)/2, so every quantum rebinds every core and flushes
// microstate — the harshest schedule for the fast-forward engine's
// bind-time invariants.
type rotator struct{}

func (rotator) Name() string { return "rotator" }
func (rotator) Place(st *machine.QuantumState) machine.Placement {
	p := make(machine.Placement, st.NumApps)
	for i := range p {
		p[i] = ((i + st.Quantum) % st.NumApps) / 2
	}
	return p
}

// runOnce executes the fb2 workload for a fixed number of quanta.
func runOnce(t *testing.T, ff bool, policy machine.Policy, seed uint64) *machine.Result {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.QuantumCycles = 5_000
	cfg.Workers = 1
	cfg.FastForward = ff
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName(0x51A9A, "fb2")
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]uint64, len(w.Apps)) // no targets: run all quanta
	res, err := m.Run(w.Apps, targets, policy, machine.RunnerOptions{
		Seed:        seed,
		MaxQuanta:   40,
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunFastForwardDifferential proves the fast-forward engine
// observationally equivalent through the whole machine layer: identical
// per-quantum PMU samples, placements and per-app results across quantum
// boundaries, bank reads and (with the rotator policy) per-quantum
// migrations.
func TestRunFastForwardDifferential(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy func() machine.Policy
	}{
		{"linux", func() machine.Policy { return sched.Linux{} }},
		{"rotator", func() machine.Policy { return rotator{} }},
	} {
		for _, seed := range []uint64{3, 0xBEEF} {
			ref := runOnce(t, false, tc.policy(), seed)
			fast := runOnce(t, true, tc.policy(), seed)
			if ref.Quanta != fast.Quanta {
				t.Fatalf("%s/%d: quanta ref=%d fast=%d", tc.name, seed, ref.Quanta, fast.Quanta)
			}
			for q := range ref.Samples {
				for a := range ref.Samples[q] {
					if ref.Samples[q][a] != fast.Samples[q][a] {
						t.Fatalf("%s/%d: samples diverge at quantum %d app %d:\nref  %v\nfast %v",
							tc.name, seed, q, a, ref.Samples[q][a], fast.Samples[q][a])
					}
				}
			}
			for i := range ref.Apps {
				if ref.Apps[i].Retired != fast.Apps[i].Retired {
					t.Fatalf("%s/%d: app %d Retired ref=%d fast=%d",
						tc.name, seed, i, ref.Apps[i].Retired, fast.Apps[i].Retired)
				}
			}
		}
	}
}
