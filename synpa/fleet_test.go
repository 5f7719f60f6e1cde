package synpa

import (
	"reflect"
	"strings"
	"testing"

	"synpa/internal/core"
)

func fleetStream() TraceStream {
	return PoissonStream("fleet", 11, []string{"mcf", "leela_r", "lbm_r", "povray_r"}, 60, 2_500, 0.2)
}

func TestRunFleetAcceptance(t *testing.T) {
	sys := fastSystem(t)
	rep, err := sys.RunFleet(FleetConfig{
		Machines:  3,
		Dispatch:  DispatchLeastLoaded,
		NewPolicy: func(int) Policy { return sys.LinuxPolicy() },
	}, fleetStream())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 60 || !rep.AllCompleted || rep.Completed != 60 {
		t.Fatalf("fleet did not drain: %+v", rep)
	}
	if rep.Machines != 3 || rep.Dispatch != DispatchLeastLoaded || rep.Policy != "Linux" {
		t.Fatalf("report mislabelled: %+v", rep)
	}
	if rep.MeanResponseCycles <= 0 || rep.ANTT < 1 || rep.STP <= 0 {
		t.Fatalf("degenerate metrics: %+v", rep)
	}
}

// TestRunFleetSingleMachineMatchesRunDynamic: a one-machine fleet is the
// machine simulator — the public API must preserve the bit-for-bit
// equivalence the internal package proves.
func TestRunFleetSingleMachineMatchesRunDynamic(t *testing.T) {
	sys := fastSystem(t)
	stream := fleetStream()
	tr := CollectTrace(stream, 0)

	dyn, err := sys.RunDynamic(tr, sys.LinuxPolicy())
	if err != nil {
		t.Fatal(err)
	}
	fr, err := sys.RunFleet(FleetConfig{
		Machines:  1,
		NewPolicy: func(int) Policy { return sys.LinuxPolicy() },
	}, fleetStream())
	if err != nil {
		t.Fatal(err)
	}
	if fr.Cycles != dyn.Cycles || fr.Slices != dyn.Slices {
		t.Fatalf("fleet (%d cycles, %d slices) != dynamic (%d cycles, %d slices)",
			fr.Cycles, fr.Slices, dyn.Cycles, dyn.Slices)
	}
	if int(fr.Completed) != dyn.Completed || fr.Deferred != dyn.Deferred {
		t.Fatalf("fleet completion (%d done, %d deferred) != dynamic (%d, %d)",
			fr.Completed, fr.Deferred, dyn.Completed, dyn.Deferred)
	}
	if fr.MeanLive != dyn.MeanLiveApps {
		t.Fatalf("fleet occupancy %v != dynamic %v", fr.MeanLive, dyn.MeanLiveApps)
	}
}

// TestRunFleetWorkerInvariance: the public knob for parallel stepping
// (Config.Workers) must not change a single bit of the report.
func TestRunFleetWorkerInvariance(t *testing.T) {
	run := func(workers int) *FleetReport {
		sys, err := New(Config{Cores: 4, QuantumCycles: 6_000, RefQuanta: 20, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunFleet(FleetConfig{
			Machines:  4,
			Dispatch:  DispatchRoundRobin,
			NewPolicy: func(int) Policy { return sys.LinuxPolicy() },
		}, fleetStream())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial, parallel := run(1), run(4)
	parallel.Workers = serial.Workers
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("worker count changed the report:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestRunFleetValidation(t *testing.T) {
	sys := fastSystem(t)
	pol := func(int) Policy { return sys.LinuxPolicy() }

	if _, err := sys.RunFleet(FleetConfig{Machines: 2, NewPolicy: pol}, nil); err == nil {
		t.Fatal("nil stream accepted")
	}
	if _, err := sys.RunFleet(FleetConfig{Machines: 2}, fleetStream()); err == nil {
		t.Fatal("nil policy factory accepted")
	}
	_, err := sys.RunFleet(FleetConfig{Machines: 2, Dispatch: "bogus", NewPolicy: pol}, fleetStream())
	if err == nil || !strings.Contains(err.Error(), DispatchLeastLoaded) {
		t.Fatalf("unknown dispatch error should list valid names, got %v", err)
	}
	// Interference dispatch requires a trained model.
	if _, err := sys.RunFleet(FleetConfig{Machines: 2, Dispatch: DispatchInterference, NewPolicy: pol}, fleetStream()); err == nil {
		t.Fatal("interference dispatch without a model accepted")
	}

	names := FleetDispatchers()
	if len(names) != 3 {
		t.Fatalf("dispatchers = %v, want 3", names)
	}
}

// TestRunFleetInterferenceTenCategoryModel: interference dispatch scores
// machines with the model's own category fractions, so a 10-category model
// drives both dispatch and placement to a drained fleet, and a model with
// no extractor (five categories) is refused with an error.
func TestRunFleetInterferenceTenCategoryModel(t *testing.T) {
	sys := fastSystem(t)
	ten := &Model{Categories: core.TenCategories}
	for k := range core.TenCategories {
		ten.Coef = append(ten.Coef, Coefficients{Alpha: 0.01 * float64(k%3), Beta: 1, Gamma: 0.05, Rho: 0.02})
	}
	rep, err := sys.RunFleet(FleetConfig{
		Machines:  3,
		Dispatch:  DispatchInterference,
		Model:     ten,
		NewPolicy: func(int) Policy { return sys.SYNPAPolicy(ten) },
	}, fleetStream())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 60 || !rep.AllCompleted || rep.Dispatch != DispatchInterference {
		t.Fatalf("10-category interference fleet did not drain: %+v", rep)
	}

	five := &Model{}
	for k := range 5 {
		five.Categories = append(five.Categories, string(rune('a'+k)))
		five.Coef = append(five.Coef, Coefficients{Beta: 1})
	}
	_, err = sys.RunFleet(FleetConfig{
		Machines:  3,
		Dispatch:  DispatchInterference,
		Model:     five,
		NewPolicy: func(int) Policy { return sys.LinuxPolicy() },
	}, fleetStream())
	if err == nil || !strings.Contains(err.Error(), "5-category") {
		t.Fatalf("5-category interference model: err = %v, want a refusal", err)
	}
}
