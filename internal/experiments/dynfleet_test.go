package experiments

import (
	"reflect"
	"strconv"
	"testing"

	"synpa/internal/core"
	"synpa/internal/fleet"
	"synpa/internal/workload"
)

func TestFleetScenariosWellFormed(t *testing.T) {
	scenarios := FleetScenarios(0x51A9A, 8_000)
	if len(scenarios) != 3 {
		t.Fatalf("%d scenarios, want 3", len(scenarios))
	}
	seen := map[string]bool{}
	for _, sc := range scenarios {
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario %s", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Machines < 2 {
			t.Fatalf("%s: %d machines; a fleet scenario needs several", sc.Name, sc.Machines)
		}
		tr := workload.Collect(sc.Stream(), 0)
		if len(tr.Entries) != 120 {
			t.Fatalf("%s: %d entries, want 120", sc.Name, len(tr.Entries))
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		// Streams must replay identically: the scenario factory hands each
		// run a fresh but bit-identical arrival sequence.
		again := workload.Collect(sc.Stream(), 0)
		for i := range tr.Entries {
			if tr.Entries[i] != again.Entries[i] {
				t.Fatalf("%s: stream replay diverged at entry %d", sc.Name, i)
			}
		}
	}
	for _, want := range []string{"fleet-sat", "fleet-imb", "fleet-hot"} {
		if !seen[want] {
			t.Fatalf("missing scenario %s (have %v)", want, seen)
		}
	}

	// fleet-imb must actually mix job sizes; fleet-hot must arrive in
	// simultaneous bursts.
	imb := workload.Collect(scenarios[1].Stream(), 0)
	sizes := map[float64]int{}
	for _, e := range imb.Entries {
		sizes[e.Work]++
	}
	if len(sizes) < 2 {
		t.Fatalf("fleet-imb has uniform job sizes: %v", sizes)
	}
	hot := workload.Collect(scenarios[2].Stream(), 0)
	bursts := map[uint64]int{}
	for _, e := range hot.Entries {
		bursts[e.ArriveAt]++
	}
	if len(bursts) != 10 {
		t.Fatalf("fleet-hot has %d burst times, want 10", len(bursts))
	}
	for at, n := range bursts {
		if n != 12 {
			t.Fatalf("fleet-hot burst at %d has %d jobs, want 12", at, n)
		}
	}
}

// TestDynFleetBaseline runs the saturation scenario under least-loaded
// dispatch and Linux placement (no trained model needed): the fleet
// drains, and the streaming report is internally consistent.
func TestDynFleetBaseline(t *testing.T) {
	s := NewSuite(fastConfig())
	sc := FleetScenarios(s.cfg.Seed, s.cfg.Machine.QuantumCycles)[0]
	rep, err := s.runFleet(sc, fleet.DispatchLeastLoaded, LinuxFactory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 120 || !rep.AllCompleted || rep.Completed != 120 {
		t.Fatalf("fleet-sat did not drain: %+v", rep)
	}
	if rep.Machines != sc.Machines || rep.Dispatch != fleet.DispatchLeastLoaded || rep.Policy != "Linux" {
		t.Fatalf("report mislabelled: %+v", rep)
	}
	if rep.ANTT < 1 {
		t.Fatalf("ANTT = %v, must be >= 1", rep.ANTT)
	}
	if rep.STP <= 0 || rep.MeanResponseCycles <= 0 || rep.P95ResponseCycles < rep.MeanResponseCycles/2 {
		t.Fatalf("degenerate response metrics: %+v", rep)
	}
	if rep.MaxMachineJobs < rep.MinMachineJobs || rep.Imbalance < 1 {
		t.Fatalf("impossible imbalance accounting: %+v", rep)
	}
}

// TestDynFleetWorkersBitIdentical runs the bursty fleet scenario under
// interference dispatch and SYNPA placement with the suite's worker count
// set to 1 and to 4, and demands identical reports — inversion counters
// included.
func TestDynFleetWorkersBitIdentical(t *testing.T) {
	model := core.PaperCoefficients()
	run := func(workers int) *fleet.Report {
		cfg := fastConfig()
		cfg.Parallel = false
		cfg.Machine.Workers = workers
		s := NewSuite(cfg)
		sc := FleetScenarios(cfg.Seed, cfg.Machine.QuantumCycles)[2]
		rep, err := s.runFleet(sc, fleet.DispatchInterference, SYNPAFactory(model, core.PolicyOptions{}), model)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Workers != workers {
			t.Fatalf("fleet ran %d workers, want %d", rep.Workers, workers)
		}
		rep.Workers = 0
		return rep
	}
	serial, parallel := run(1), run(4)
	if pc := serial.PredCache; pc.InvertMisses == 0 {
		t.Fatalf("SYNPA placement counted no inversions: %+v", pc)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("fleet reports diverge between Workers=1 and Workers=4\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestDynFleetScaleSmall exercises the scale harness end to end at a CI
// size: the table shape is right and every dispatched job is accounted
// for.
func TestDynFleetScaleSmall(t *testing.T) {
	s := NewSuite(fastConfig())
	tab, err := s.DynFleetScale(FleetScaleOptions{Machines: 24, Jobs: 4_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("%d rows, want 1", len(tab.Rows))
	}
	row := tab.Rows[0]
	if row[0] != "24" || row[2] != "4000" {
		t.Fatalf("row mislabelled: %v", row)
	}
	done, err := strconv.Atoi(row[3])
	if err != nil {
		t.Fatal(err)
	}
	unfinished, err := strconv.Atoi(row[4])
	if err != nil {
		t.Fatal(err)
	}
	if done+unfinished != 4_000 {
		t.Fatalf("jobs leaked: done %d + unfinished %d != 4000", done, unfinished)
	}
	if done == 0 {
		t.Fatal("no job completed")
	}
}
