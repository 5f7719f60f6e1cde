package synpa

import (
	"reflect"
	"strings"
	"testing"
)

// acceptanceTrace is the ISSUE's acceptance scenario: 5 apps on 4 cores —
// odd occupancy — with one mid-run arrival and one early departure.
func acceptanceTrace(t *testing.T) Trace {
	t.Helper()
	tr, err := ParseTrace("accept", strings.NewReader(`
		0      mcf
		0      leela_r
		0      lbm_r
		0      gobmk    0.25  # departs early
		18000  povray_r       # arrives mid-run: 5 live apps, odd
	`))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunDynamicAcceptance(t *testing.T) {
	sys := fastSystem(t)
	tr := acceptanceTrace(t)
	for _, tc := range []struct {
		name   string
		policy Policy
	}{
		{"Linux", sys.LinuxPolicy()},
		{"Random", sys.RandomPolicy(5)},
		// The paper-model SYNPA policy must survive odd live-app counts
		// (an idle-padded matching graph) and mid-run admissions.
		{"SYNPA", sys.SYNPAPolicy(PaperModel())},
	} {
		rep, err := sys.RunDynamic(tr, tc.policy)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Policy != tc.name {
			t.Fatalf("policy = %q, want %q", rep.Policy, tc.name)
		}
		if !rep.AllCompleted || rep.Completed != 5 {
			t.Fatalf("%s: completed %d/5, AllCompleted=%v", tc.name, rep.Completed, rep.AllCompleted)
		}
		for i, a := range rep.Apps {
			if a.FinishAt == 0 || a.ResponseCycles == 0 {
				t.Fatalf("%s app %d (%s): no response time: %+v", tc.name, i, a.Name, a)
			}
			if a.NormalizedResponse <= 0 {
				t.Fatalf("%s app %d: normalized response %v", tc.name, i, a.NormalizedResponse)
			}
			if a.FinishAt != a.ArriveAt+a.ResponseCycles {
				t.Fatalf("%s app %d: inconsistent timestamps %+v", tc.name, i, a)
			}
		}
		// The short job departs first; the mid-run arrival arrived last.
		if rep.Apps[3].FinishAt >= rep.Apps[0].FinishAt {
			t.Fatalf("%s: early departer finished at %d after %d", tc.name, rep.Apps[3].FinishAt, rep.Apps[0].FinishAt)
		}
		if rep.Apps[4].ArriveAt != 18000 {
			t.Fatalf("%s: arrival at %d", tc.name, rep.Apps[4].ArriveAt)
		}
		if rep.ANTT < 1 {
			t.Fatalf("%s: ANTT = %v", tc.name, rep.ANTT)
		}
		if rep.Occupancy <= 0 || rep.Occupancy > 1 {
			t.Fatalf("%s: occupancy = %v", tc.name, rep.Occupancy)
		}
	}
}

func TestRunDynamicDeterministicSeed(t *testing.T) {
	// Same system seed → bit-identical DynamicReport, including response
	// times, for every policy kind.
	tr := acceptanceTrace(t)
	run := func(kind string) *DynamicReport {
		sys := fastSystem(t)
		var p Policy
		switch kind {
		case "linux":
			p = sys.LinuxPolicy()
		case "random":
			p = sys.RandomPolicy(11)
		default:
			p = sys.SYNPAPolicy(PaperModel())
		}
		rep, err := sys.RunDynamic(tr, p)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, kind := range []string{"linux", "random", "synpa"} {
		a, b := run(kind), run(kind)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different dynamic reports:\n%+v\n%+v", kind, a, b)
		}
	}
}

func TestRunDynamicPoisson(t *testing.T) {
	sys := fastSystem(t)
	tr := PoissonTrace("poisson", 21, []string{"mcf", "leela_r", "gobmk", "lbm_r"}, 6, 12_000, 0.4)
	rep, err := sys.RunDynamic(tr, sys.LinuxPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllCompleted {
		t.Fatalf("poisson run incomplete: %+v", rep)
	}
	if rep.STP <= 0 {
		t.Fatalf("STP = %v", rep.STP)
	}
}

func TestRunDynamicErrors(t *testing.T) {
	sys := fastSystem(t)
	if _, err := sys.RunDynamic(acceptanceTrace(t), nil); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := sys.RunDynamic(Trace{Name: "empty"}, sys.LinuxPolicy()); err == nil {
		t.Fatal("empty trace accepted")
	}
	bad := Trace{Name: "bad", Entries: []TraceEntry{{App: "nope"}}}
	if _, err := sys.RunDynamic(bad, sys.LinuxPolicy()); err == nil {
		t.Fatal("unknown app accepted")
	}
}
