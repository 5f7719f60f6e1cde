// Golden-regression harness: every experiment the repository claims is
// bit-identical across PRs is rendered at a fixed scaled-down configuration,
// hashed, and compared against the committed digests in
// testdata/golden.json. A digest mismatch means an output bit changed — the
// enforced CI form of the "bit-identical across PRs" differential claims.
//
// The harness lives in the regression package's external test (the package
// itself is the OLS solver at the numerical heart of the model, which makes
// it the natural owner of the repository's regression *testing* too) so it
// can drive the experiment suite without an import cycle.
//
// Regenerate after an intentional output change with:
//
//	go test ./internal/regression -run TestGoldenDigests -update
//
// and commit the refreshed testdata/golden.json together with the change
// that moved the numbers, explaining why in the commit message. On a
// mismatch the test writes testdata/golden.got.json (digests plus the full
// rendered tables) so CI can upload the diff as an artifact.
package regression_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"synpa/internal/experiments"
	"synpa/internal/obs"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.json from the current implementation")

// goldenConfig is the fixed digest-mode configuration: scaled down from the
// published defaults so the whole harness runs in CI time, but exercising
// every layer (training, closed-system figures, the dynamic runner, SMT4
// grouping). Changing any of these values invalidates every digest.
func goldenConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Machine.QuantumCycles = 8000
	cfg.RefQuanta = 30
	cfg.Reps = 1
	cfg.MaxQuanta = 20_000
	return cfg
}

// goldenFile is the committed digest set.
type goldenFile struct {
	// Note documents what the digests pin.
	Note string `json:"note"`
	// Digests maps experiment name to the SHA-256 of its rendered table.
	Digests map[string]string `json:"digests"`
}

// gotFile is written on mismatch (or -update) for the CI artifact: digests
// plus the rendered tables, so a digest diff is diagnosable without rerunning.
type gotFile struct {
	Digests map[string]string `json:"digests"`
	Tables  map[string]string `json:"tables"`
}

// goldenExperiments returns the digest-mode experiment set in a fixed order:
// the closed-system figure/table claims (fig5, fig9, table4), the
// pair-selection ablation (the only output of PolicyOptions.Matcher), the
// dynamic scenarios (dyn0–dyn4 via the dynamic table), the SMT4 comparison,
// and the fleet grid (whose digest doubles as the worker-count-invariance pin: CI
// runs it at whatever parallelism the runner has, and the digest only
// matches if the report is bit-identical to the committed serial render).
func goldenExperiments(s *experiments.Suite) []struct {
	name string
	run  func() (*experiments.Table, error)
} {
	return []struct {
		name string
		run  func() (*experiments.Table, error)
	}{
		{"fig5", s.Fig5},
		{"fig9", s.Fig9},
		{"table4", s.TableIV},
		{"ablation-matcher", s.AblationMatcher},
		{"dynamic", s.DynamicTable},
		{"smt4", s.SMT4Table},
		{"dynfleet", s.DynFleetTable},
	}
}

func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digest harness runs the experiment suite; skipped in -short")
	}
	s := experiments.NewSuite(goldenConfig())

	got := gotFile{Digests: map[string]string{}, Tables: map[string]string{}}
	for _, e := range goldenExperiments(s) {
		tab, err := e.run()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		rendered := tab.String()
		sum := sha256.Sum256([]byte(rendered))
		got.Digests[e.name] = hex.EncodeToString(sum[:])
		got.Tables[e.name] = rendered
	}

	goldenPath := filepath.Join("testdata", "golden.json")
	if *update {
		g := goldenFile{
			Note:    "SHA-256 digests of the rendered golden experiments at the scaled digest-mode configuration (see goldenConfig); regenerate with -update only alongside an intentional output change",
			Digests: got.Digests,
		}
		buf, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden digests regenerated: %s", goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading committed golden digests (run with -update to generate): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}

	mismatch := false
	for _, e := range goldenExperiments(s) {
		w, ok := want.Digests[e.name]
		if !ok {
			t.Errorf("%s: no committed digest (regenerate with -update)", e.name)
			mismatch = true
			continue
		}
		if g := got.Digests[e.name]; g != w {
			t.Errorf("%s: digest mismatch\n  committed: %s\n  got:       %s", e.name, w, g)
			mismatch = true
		}
	}
	for name := range want.Digests {
		if _, ok := got.Digests[name]; !ok {
			t.Errorf("%s: committed digest has no matching experiment", name)
			mismatch = true
		}
	}
	if mismatch {
		// The full rendered tables make the digest diff diagnosable; CI
		// uploads this file as an artifact on failure.
		out, err := json.MarshalIndent(got, "", "  ")
		if err == nil {
			gotPath := filepath.Join("testdata", "golden.got.json")
			if werr := os.WriteFile(gotPath, append(out, '\n'), 0o644); werr == nil {
				t.Logf("rendered tables and digests written to %s", gotPath)
			}
		}
	}
}

// TestGoldenDigestsUnchangedWithSharedCache pins the shared concurrent
// prediction cache's bit-identity claim at the digest level: the fleet
// grid rendered with one shared cache per run (fleet.Config.SharedCache,
// many machines hitting one memo) must reproduce the committed dynfleet
// digest bit for bit — concurrent sharing may change which calls hit, but
// never an output (internal/predcache package docs).
func TestGoldenDigestsUnchangedWithSharedCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the dynfleet golden experiment; skipped in -short")
	}
	buf, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatalf("reading committed golden digests: %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}

	cfg := goldenConfig()
	cfg.FleetSharedCache = true
	s := experiments.NewSuite(cfg)
	tab, err := s.DynFleetTable()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(tab.String()))
	if got := hex.EncodeToString(sum[:]); got != want.Digests["dynfleet"] {
		t.Fatalf("shared cache perturbed the dynfleet digest\n  committed: %s\n  got:       %s\n%s",
			want.Digests["dynfleet"], got, tab.String())
	}
}

// TestGoldenDigestsUnchangedWithTracing pins the observability layer's
// zero-perturbation claim at the digest level: running a golden experiment
// with a live observer attached must reproduce the committed digest bit
// for bit, while actually collecting events. The dynamic table exercises
// the instrumented DynRunner lifecycle end to end; tracing forces a serial
// suite (the event trace is not parallel-safe — see experiments.Config.Obs).
func TestGoldenDigestsUnchangedWithTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the dynamic golden experiment; skipped in -short")
	}
	buf, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatalf("reading committed golden digests: %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}

	cfg := goldenConfig()
	cfg.Parallel = false
	cfg.Obs = obs.NewObserver(0)
	s := experiments.NewSuite(cfg)
	tab, err := s.DynamicTable()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(tab.String()))
	if got := hex.EncodeToString(sum[:]); got != want.Digests["dynamic"] {
		t.Fatalf("tracing perturbed the dynamic digest\n  committed: %s\n  got:       %s\n%s",
			want.Digests["dynamic"], got, tab.String())
	}
	if len(cfg.Obs.Trace.Events()) == 0 {
		t.Fatal("observer attached but no events collected — the pin is vacuous")
	}
	if cfg.Obs.Reg.Snapshot().Counters["jobs.completed"] == 0 {
		t.Fatal("observer attached but no counters accrued")
	}
}
