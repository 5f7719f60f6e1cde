package fleet

import (
	"reflect"
	"strings"
	"testing"

	"synpa/internal/admission"
	"synpa/internal/apps"
	"synpa/internal/core"
	"synpa/internal/machine"
)

// spreadPolicy fills cores two apps at a time in live order — a cheap
// deterministic stand-in for a trained SYNPA policy.
type spreadPolicy struct{}

func (spreadPolicy) Name() string { return "spread" }
func (spreadPolicy) Place(st *machine.QuantumState) machine.Placement {
	p := make(machine.Placement, st.NumApps)
	for i := range p {
		p[i] = (i / st.ThreadsPerCore()) % st.NumCores
	}
	return p
}

func testMachineConfig() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.QuantumCycles = 5_000
	cfg.Workers = 1
	return cfg
}

func mustApp(t *testing.T, name string) *apps.Model {
	t.Helper()
	m, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sliceSource replays a fixed job list; the test-side stand-in for a
// streaming source.
type sliceSource struct {
	jobs []Job
	i    int
}

func (s *sliceSource) Name() string { return "slice" }
func (s *sliceSource) Err() error   { return nil }
func (s *sliceSource) Next() (Job, bool) {
	if s.i >= len(s.jobs) {
		return Job{}, false
	}
	j := s.jobs[s.i]
	s.i++
	return j, true
}

// testJobs builds n jobs in arrival order with IDs equal to their stream
// position (the layout RunDynamic reproduces for a pre-sorted work list):
// a burst at t=0 that overflows one machine's eight hardware threads, then
// a trickle with mid-quantum arrivals and an idle gap.
func testJobs(t *testing.T, n int) []Job {
	t.Helper()
	names := []string{"mcf", "leela_r", "lbm_r", "gobmk", "povray_r"}
	jobs := make([]Job, n)
	var at uint64
	for i := range jobs {
		if i >= 10 {
			at += uint64(2_300 + 1_700*(i%3)) // off-quantum offsets
		}
		if i == n-2 {
			at += 40_000 // idle gap before the stragglers
		}
		jobs[i] = Job{
			ID: i,
			App: machine.DynamicApp{
				Model:    mustApp(t, names[i%len(names)]),
				Target:   uint64(20_000 + 7_000*(i%4)),
				ArriveAt: at,
				Priority: i % 3,
				Weight:   float64(1 + i%2),
			},
			IsoCycles: float64(30_000 + 1_000*i),
			Cats:      []float64{0.4, 0.3, 0.3},
		}
	}
	return jobs
}

// TestSingleMachineMatchesRunDynamic pins the fleet's core invariant: a
// one-machine fleet is RunDynamic, bit for bit — same clocks, same
// admissions, same per-job outcomes — because dispatch degenerates to a
// queue and the runner protocol is driven through the same call sequence.
func TestSingleMachineMatchesRunDynamic(t *testing.T) {
	for _, adm := range []string{"", "priority", "sjf"} {
		t.Run("adm="+adm, func(t *testing.T) {
			jobs := testJobs(t, 16)
			work := make([]machine.DynamicApp, len(jobs))
			for i, j := range jobs {
				work[i] = j.App
			}

			m, err := machine.New(testMachineConfig())
			if err != nil {
				t.Fatal(err)
			}
			admPol := machine.DynamicOptions{Seed: 7}
			if adm != "" {
				p, err := admission.ByName(adm)
				if err != nil {
					t.Fatal(err)
				}
				admPol.Admission = p
			}
			ref, err := m.RunDynamic(work, spreadPolicy{}, admPol)
			if err != nil {
				t.Fatal(err)
			}

			got := map[int]machine.JobOutcome{}
			rep, err := Run(Config{
				Machines:  1,
				Machine:   testMachineConfig(),
				NewPolicy: func(int) machine.Policy { return spreadPolicy{} },
				Admission: adm,
				Seed:      7,
				OnJobDone: func(mi int, o machine.JobOutcome) {
					if mi != 0 {
						t.Fatalf("job %d done on machine %d in a 1-machine fleet", o.ID, mi)
					}
					got[o.ID] = o
				},
			}, &sliceSource{jobs: jobs})
			if err != nil {
				t.Fatal(err)
			}

			if rep.Cycles != ref.Cycles || rep.Slices != ref.Slices {
				t.Fatalf("clock diverged: fleet (%d cycles, %d slices) vs RunDynamic (%d, %d)",
					rep.Cycles, rep.Slices, ref.Cycles, ref.Slices)
			}
			if rep.Deferred != ref.Deferred || rep.PeakLive != ref.PeakLiveApps || rep.MeanLive != ref.MeanLiveApps {
				t.Fatalf("occupancy diverged: fleet (%d deferred, peak %d, mean %v) vs (%d, %d, %v)",
					rep.Deferred, rep.PeakLive, rep.MeanLive, ref.Deferred, ref.PeakLiveApps, ref.MeanLiveApps)
			}
			var refDone uint64
			for i, a := range ref.Apps {
				if a.FinishAt == 0 {
					if _, ok := got[i]; ok {
						t.Fatalf("job %d finished in the fleet but not in RunDynamic", i)
					}
					continue
				}
				refDone++
				o, ok := got[i]
				if !ok {
					t.Fatalf("job %d finished in RunDynamic but not in the fleet", i)
				}
				if o.FinishAt != a.FinishAt || o.AdmittedAt != a.AdmittedAt ||
					o.ResponseCycles != a.ResponseCycles || o.Retired != a.Retired || o.IPC != a.IPC {
					t.Fatalf("job %d diverged:\nfleet      %+v\nRunDynamic %+v", i, o, a)
				}
			}
			if rep.Completed != refDone {
				t.Fatalf("fleet completed %d jobs, RunDynamic %d", rep.Completed, refDone)
			}
			if rep.AllCompleted != ref.AllCompleted {
				t.Fatalf("AllCompleted = %v, RunDynamic %v", rep.AllCompleted, ref.AllCompleted)
			}
		})
	}
}

// jobDone is one OnJobDone observation.
type jobDone struct {
	mi int
	o  machine.JobOutcome
}

// runFleet runs the standard multi-machine scenario and returns the report
// and the ordered completion log.
func runFleet(t *testing.T, dispatch string, workers int, machines int) (*Report, []jobDone) {
	t.Helper()
	var log []jobDone
	rep, err := Run(Config{
		Machines:  machines,
		Machine:   testMachineConfig(),
		NewPolicy: func(int) machine.Policy { return spreadPolicy{} },
		Dispatch:  dispatch,
		Model:     core.PaperCoefficients(),
		Admission: "priority",
		Seed:      11,
		Workers:   workers,
		OnJobDone: func(mi int, o machine.JobOutcome) { log = append(log, jobDone{mi, o}) },
	}, &sliceSource{jobs: testJobs(t, 48)})
	if err != nil {
		t.Fatal(err)
	}
	return rep, log
}

// TestWorkerCountInvariance pins the sharding invariant: the report and
// the exact completion order are bit-identical at every worker count, for
// every dispatch policy.
func TestWorkerCountInvariance(t *testing.T) {
	for _, dispatch := range Dispatchers() {
		t.Run(dispatch, func(t *testing.T) {
			rep1, log1 := runFleet(t, dispatch, 1, 5)
			rep4, log4 := runFleet(t, dispatch, 4, 5)
			rep1.Workers, rep4.Workers = 0, 0
			if !reflect.DeepEqual(rep1, rep4) {
				t.Fatalf("reports diverged across worker counts:\n1: %+v\n4: %+v", rep1, rep4)
			}
			if !reflect.DeepEqual(log1, log4) {
				t.Fatalf("completion logs diverged across worker counts")
			}
			if rep1.Jobs != 48 || !rep1.AllCompleted {
				t.Fatalf("scenario did not drain: %+v", rep1)
			}
			if rep1.STP <= 0 || rep1.MeanResponseCycles <= 0 || rep1.P95ResponseCycles <= 0 {
				t.Fatalf("degenerate metrics: %+v", rep1)
			}
			if len(rep1.PerClass) != 3 {
				t.Fatalf("per-class breakdown has %d classes, want 3", len(rep1.PerClass))
			}
		})
	}
}

// TestDispatcherUnits exercises the dispatch policies directly.
func TestDispatcherUnits(t *testing.T) {
	job := func(t *testing.T) *Job {
		return &Job{App: machine.DynamicApp{Model: mustApp(t, "mcf")}, Cats: []float64{0.5, 0.3, 0.2}}
	}

	t.Run("round-robin", func(t *testing.T) {
		d, err := newDispatcher(DispatchRoundRobin, 3, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := []int{0, 1, 2, 0, 1}
		for i, w := range want {
			if got := d.pick(job(t)); got != w {
				t.Fatalf("pick %d = machine %d, want %d", i, got, w)
			}
		}
	})

	t.Run("least-loaded", func(t *testing.T) {
		d, err := newDispatcher("", 3, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d.name() != DispatchLeastLoaded {
			t.Fatalf("empty name resolved to %q", d.name())
		}
		// Fill evenly, then free machine 1 and expect it next.
		picks := []int{d.pick(job(t)), d.pick(job(t)), d.pick(job(t))}
		if !reflect.DeepEqual(picks, []int{0, 1, 2}) {
			t.Fatalf("initial picks %v, want [0 1 2]", picks)
		}
		d.done(1, "mcf")
		if got := d.pick(job(t)); got != 1 {
			t.Fatalf("after done(1) pick = %d, want 1", got)
		}
	})

	t.Run("interference", func(t *testing.T) {
		d, err := newDispatcher(DispatchInterference, 3, 2, core.PaperCoefficients())
		if err != nil {
			t.Fatal(err)
		}
		// Identical jobs: empty machines win first, then equal scores tie
		// to the least-loaded lowest index; once all three machines hold
		// two jobs (capacity), the fallback queues on least-loaded.
		want := []int{0, 1, 2, 0, 1, 2, 0}
		for i, w := range want {
			if got := d.pick(job(t)); got != w {
				t.Fatalf("pick %d = machine %d, want %d", i, got, w)
			}
		}
		// Releases rebalance: machine 2 frees a slot and wins the next pick
		// over the fuller machines.
		d.done(2, "mcf")
		d.done(2, "mcf")
		if got := d.pick(job(t)); got != 2 {
			t.Fatalf("pick after releases = %d, want 2", got)
		}
	})

	t.Run("interference-needs-model", func(t *testing.T) {
		if _, err := newDispatcher(DispatchInterference, 3, 8, nil); err == nil {
			t.Fatal("interference dispatcher accepted a nil model")
		}
	})
}

// TestUnknownNames pins the CLI-grade validation: unknown dispatch and
// admission names fail fast, listing the valid names.
func TestUnknownNames(t *testing.T) {
	src := &sliceSource{jobs: testJobs(t, 2)}
	base := Config{
		Machines:  2,
		Machine:   testMachineConfig(),
		NewPolicy: func(int) machine.Policy { return spreadPolicy{} },
	}

	cfg := base
	cfg.Dispatch = "bogus"
	_, err := Run(cfg, src)
	if err == nil || !strings.Contains(err.Error(), DispatchLeastLoaded) {
		t.Fatalf("bogus dispatch error %v does not list valid names", err)
	}

	cfg = base
	cfg.Admission = "bogus"
	_, err = Run(cfg, src)
	if err == nil || !strings.Contains(err.Error(), "fifo") {
		t.Fatalf("bogus admission error %v does not list valid names", err)
	}

	if err := CheckDispatch("bogus"); err == nil {
		t.Fatal("CheckDispatch accepted an unknown name")
	}
	for _, name := range append(Dispatchers(), "") {
		if err := CheckDispatch(name); err != nil {
			t.Fatalf("CheckDispatch(%q) = %v", name, err)
		}
	}
}

// TestTruncation pins the horizon cutoff: arrivals at or beyond MaxCycles
// are never dispatched and the report says so.
func TestTruncation(t *testing.T) {
	jobs := testJobs(t, 16)
	horizon := jobs[12].App.ArriveAt // strictly between arrivals 11 and 12
	rep, err := Run(Config{
		Machines:  2,
		Machine:   testMachineConfig(),
		NewPolicy: func(int) machine.Policy { return spreadPolicy{} },
		Seed:      3,
		MaxCycles: horizon,
	}, &sliceSource{jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || rep.AllCompleted {
		t.Fatalf("horizon %d: Truncated=%v AllCompleted=%v", horizon, rep.Truncated, rep.AllCompleted)
	}
	if rep.Jobs != 12 {
		t.Fatalf("dispatched %d jobs, want 12 (the pre-horizon arrivals)", rep.Jobs)
	}
	if rep.Cycles > horizon {
		t.Fatalf("clock %d ran past the horizon %d", rep.Cycles, horizon)
	}
}

// TestRoundRobinBalance sanity-checks the imbalance accounting: cyclic
// dispatch of 48 jobs over 4 machines is perfectly even.
func TestRoundRobinBalance(t *testing.T) {
	rep, _ := runFleet(t, DispatchRoundRobin, 1, 4)
	if rep.MinMachineJobs != 12 || rep.MaxMachineJobs != 12 || rep.Imbalance != 1 {
		t.Fatalf("round-robin spread min=%d max=%d imbalance=%v, want 12/12/1",
			rep.MinMachineJobs, rep.MaxMachineJobs, rep.Imbalance)
	}
}

// TestRunValidation pins the config errors.
func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Machines: 1}, nil); err == nil {
		t.Fatal("nil source accepted")
	}
	src := &sliceSource{}
	if _, err := Run(Config{Machines: 0, NewPolicy: func(int) machine.Policy { return spreadPolicy{} }}, src); err == nil {
		t.Fatal("zero machines accepted")
	}
	if _, err := Run(Config{Machines: 1, Machine: testMachineConfig()}, src); err == nil {
		t.Fatal("nil policy factory accepted")
	}
}
