package workload

import (
	"testing"

	"synpa/internal/apps"
	"synpa/internal/machine"
)

func TestStandardSetComposition(t *testing.T) {
	set := StandardSet(1)
	if len(set) != 20 {
		t.Fatalf("standard set has %d workloads, paper evaluates 20", len(set))
	}
	counts := map[Kind]int{}
	for _, w := range set {
		counts[w.Kind]++
		if len(w.Apps) != AppsPerWorkload {
			t.Errorf("%s has %d apps, want %d", w.Name, len(w.Apps), AppsPerWorkload)
		}
	}
	if counts[Backend] != 5 || counts[Frontend] != 5 || counts[Mixed] != 10 {
		t.Fatalf("kind counts = %v, want 5/5/10", counts)
	}
}

func TestStandardSetRecipes(t *testing.T) {
	for _, w := range StandardSet(7) {
		groups := map[apps.Group]int{}
		for _, m := range w.Apps {
			groups[m.Group]++
		}
		switch w.Kind {
		case Backend:
			if groups[apps.GroupBackend] < 5 {
				t.Errorf("%s has only %d backend-bound apps", w.Name, groups[apps.GroupBackend])
			}
			if groups[apps.GroupFrontend] > 0 {
				t.Errorf("%s contains frontend-bound apps", w.Name)
			}
		case Frontend:
			if groups[apps.GroupFrontend] < 5 {
				t.Errorf("%s has only %d frontend-bound apps", w.Name, groups[apps.GroupFrontend])
			}
			if groups[apps.GroupBackend] > 0 {
				t.Errorf("%s contains backend-bound apps", w.Name)
			}
		case Mixed:
			if groups[apps.GroupBackend] != 4 || groups[apps.GroupFrontend] != 4 {
				t.Errorf("%s split = %v, want 4 backend + 4 frontend", w.Name, groups)
			}
		}
	}
}

func TestPublishedCompositions(t *testing.T) {
	// The three workloads the paper spells out must match exactly.
	fb2, err := ByName(123, "fb2")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lbm_r", "mcf", "cactuBSSN_r", "mcf", "leela_r", "leela_r", "astar", "mcf_r"}
	got := fb2.Names()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fb2 = %v, want %v", got, want)
		}
	}

	be1, _ := ByName(123, "be1")
	if be1.Names()[0] != "cactuBSSN_r" || be1.Kind != Backend {
		t.Fatalf("be1 = %v", be1.Names())
	}
	fe2, _ := ByName(123, "fe2")
	if fe2.Names()[0] != "leela_r" || fe2.Kind != Frontend {
		t.Fatalf("fe2 = %v", fe2.Names())
	}
}

func TestStandardSetDeterministic(t *testing.T) {
	a := StandardSet(99)
	b := StandardSet(99)
	for i := range a {
		an, bn := a[i].Names(), b[i].Names()
		for j := range an {
			if an[j] != bn[j] {
				t.Fatalf("workload %s differs across calls with same seed", a[i].Name)
			}
		}
	}
	c := StandardSet(100)
	same := true
	for i := range a {
		if a[i].Name == "fb2" || a[i].Name == "be1" || a[i].Name == "fe2" {
			continue // published, seed-independent
		}
		an, cn := a[i].Names(), c[i].Names()
		for j := range an {
			if an[j] != cn[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical generated workloads")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName(1, "zz9"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestKindString(t *testing.T) {
	if Backend.String() != "backend" || Frontend.String() != "frontend" || Mixed.String() != "mixed" {
		t.Fatal("kind labels wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind label empty")
	}
}

func testCfg() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.QuantumCycles = 5_000
	cfg.Workers = 1
	return cfg
}

func TestTargetCache(t *testing.T) {
	tc := NewTargetCache(testCfg(), 10, 42)
	m, _ := apps.ByName("mcf")

	tgt, err := tc.Target(m)
	if err != nil {
		t.Fatal(err)
	}
	if tgt == 0 {
		t.Fatal("zero target")
	}
	// Cached: same value back.
	tgt2, _ := tc.Target(m)
	if tgt2 != tgt {
		t.Fatal("cache returned a different target")
	}

	ipc, err := tc.IsolatedIPC(m)
	if err != nil {
		t.Fatal(err)
	}
	// mcf is heavily memory bound; its IPC must be well under 1.
	if ipc <= 0 || ipc > 1 {
		t.Fatalf("mcf isolated IPC = %v", ipc)
	}
	// Target and IPC must be mutually consistent: target = IPC · cycles.
	wantTarget := uint64(ipc * float64(10*5_000))
	diff := int64(tgt) - int64(wantTarget)
	if diff < -1 || diff > 1 {
		t.Fatalf("target %d inconsistent with IPC %v (want ~%d)", tgt, ipc, wantTarget)
	}
}

func TestTargetsForWorkload(t *testing.T) {
	tc := NewTargetCache(testCfg(), 8, 42)
	w, err := ByName(1, "fb2")
	if err != nil {
		t.Fatal(err)
	}
	targets, err := tc.Targets(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 8 {
		t.Fatalf("got %d targets", len(targets))
	}
	// Duplicate apps (mcf twice, leela_r twice) share one target.
	if targets[1] != targets[3] {
		t.Fatal("two mcf instances should share a target")
	}
	if targets[4] != targets[5] {
		t.Fatal("two leela_r instances should share a target")
	}
	ipcs, err := tc.IsolatedIPCs(w)
	if err != nil {
		t.Fatal(err)
	}
	// Faster apps must have proportionally larger targets.
	for i := range targets {
		if ipcs[i] <= 0 {
			t.Fatalf("ipc[%d] = %v", i, ipcs[i])
		}
	}
}

func TestHigherIPCMeansHigherTarget(t *testing.T) {
	tc := NewTargetCache(testCfg(), 10, 42)
	fast, _ := apps.ByName("nab_r") // IPC ≈ 2.3
	slow, _ := apps.ByName("mcf")   // IPC ≈ 0.33
	tf, _ := tc.Target(fast)
	ts, _ := tc.Target(slow)
	if tf <= ts {
		t.Fatalf("nab_r target %d should exceed mcf target %d", tf, ts)
	}
}
