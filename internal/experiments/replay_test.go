package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"synpa/internal/core"
	"synpa/internal/machine"
	"synpa/internal/pmu"
	"synpa/internal/predcache"
	"synpa/internal/workload"
)

// queryRecorder wraps the policy driving the recording run and deep-copies
// every QuantumState it is asked to place. The runner owns and reuses the
// state's slices across quanta (machine.Policy contract), so retaining
// them for replay requires copying everything: Samples copies deeply by
// value (pmu.Counters is an array, not a slice).
type queryRecorder struct {
	inner   machine.Policy
	queries *[]machine.QuantumState
}

func (r queryRecorder) Name() string { return r.inner.Name() }

func (r queryRecorder) Place(st *machine.QuantumState) machine.Placement {
	q := *st
	q.AppIDs = append([]int(nil), st.AppIDs...)
	q.Prev = append(machine.Placement(nil), st.Prev...)
	q.Samples = append([]pmu.Counters(nil), st.Samples...)
	q.Priorities = append([]int(nil), st.Priorities...)
	*r.queries = append(*r.queries, q)
	return r.inner.Place(st)
}

// qpsTrace is the recording scenario: the fleet application mix arriving
// all at once, sized to keep the machine's hardware threads fully occupied
// for most of the run, so the recorded queries exercise the model path
// the prediction cache accelerates rather than the matcher floor of an
// underloaded machine.
func qpsTrace(cfg machine.Config) workload.Trace {
	pool := fleetPool()
	tr := workload.Trace{Name: "qps-sat"}
	n := cfg.Cores * cfg.ThreadsPerCore()
	for i := 0; i < n; i++ {
		tr.Entries = append(tr.Entries, workload.TraceEntry{App: pool[i%len(pool)], ArriveAt: 0, Work: 1})
	}
	return tr
}

// recordQueries runs the saturating scenario under a recording SYNPA
// policy and returns the model-driven placement queries it answered
// (decisions with PMU samples; the first quantum's sample-less call is
// arrival-order and exercises no model path).
func (s *Suite) recordQueries(model *core.Model) ([]machine.QuantumState, error) {
	var recorded []machine.QuantumState
	factory := PolicyFactory{Label: "SYNPA-recorded", New: func() machine.Policy {
		return queryRecorder{
			inner:   core.MustPolicy(model, core.PolicyOptions{}),
			queries: &recorded,
		}
	}}
	if _, err := s.runDynamic(qpsTrace(s.cfg.Machine), factory); err != nil {
		return nil, err
	}

	live := recorded[:0]
	for _, q := range recorded {
		if q.Samples != nil && q.NumApps >= 2 {
			live = append(live, q)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("experiments: recorded no model-driven queries")
	}
	return live, nil
}

// The query log is recorded once per test binary, on the shared fast
// suite whose model the figure tests already train.
var (
	queryLogOnce sync.Once
	queryLog     []machine.QuantumState
	queryLogErr  error
)

// recordedQueries returns the shared query log and the model that answered
// it, skipping the test in -short mode.
func recordedQueries(t *testing.T) (*core.Model, []machine.QuantumState) {
	t.Helper()
	if testing.Short() {
		t.Skip("records a dynamic run; skipped in -short")
	}
	s := getFastSuite()
	model, _, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	queryLogOnce.Do(func() { queryLog, queryLogErr = s.recordQueries(model) })
	if queryLogErr != nil {
		t.Fatal(queryLogErr)
	}
	return model, queryLog
}

// TestRecordQueriesShape checks the recorded query log: model-driven
// decisions only (samples present, two or more live apps), deep-copied
// out of the runner's reused slices.
func TestRecordQueriesShape(t *testing.T) {
	_, all := recordedQueries(t)
	for i, q := range all {
		if q.Samples == nil || q.NumApps < 2 {
			t.Fatalf("query %d is not model-driven: NumApps=%d Samples=%v", i, q.NumApps, q.Samples != nil)
		}
		if len(q.Samples) != q.NumApps || len(q.AppIDs) != q.NumApps {
			t.Fatalf("query %d slices not parallel to live set", i)
		}
		if i > 0 && (&q.Samples[0] == &all[i-1].Samples[0] || &q.AppIDs[0] == &all[i-1].AppIDs[0]) {
			t.Fatalf("query %d shares its slices with query %d: not deep-copied", i, i-1)
		}
	}
	if len(all) < 32 {
		t.Fatalf("only %d model-driven queries recorded from qps-sat", len(all))
	}
}

// TestReplayBitIdenticalAcrossCacheModes is the serving-path differential:
// replaying the recorded query log through PlaceR must produce the same
// placement sequence whether the cache is disabled, private or shared,
// serial or eight goroutines racing one shared cache. Run under -race in
// CI this doubles as the race gate for the reentrant placement path.
func TestReplayBitIdenticalAcrossCacheModes(t *testing.T) {
	model, queries := recordedQueries(t)

	serial := func(opt core.PolicyOptions, shared bool) []machine.Placement {
		p := core.MustPolicy(model, opt)
		if shared {
			p.SetSharedCache(predcache.NewShared(predcache.Options{}, 4))
		}
		a := p.NewArena()
		out := make([]machine.Placement, len(queries))
		for i := range queries {
			st := queries[i]
			out[i] = p.PlaceR(a, &st)
		}
		return out
	}
	want := serial(core.PolicyOptions{}, false)

	disabled := core.PolicyOptions{}
	disabled.Cache.Disabled = true
	for name, got := range map[string][]machine.Placement{
		"nocache": serial(disabled, false),
		"shared":  serial(core.PolicyOptions{}, true),
	} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s replay diverged from private-cache replay", name)
		}
	}

	// Concurrent: 8 goroutines, one shared cache, per-goroutine arenas;
	// every goroutine replays the full log and must reproduce `want`.
	p := core.MustPolicy(model, core.PolicyOptions{})
	p.SetSharedCache(predcache.NewShared(predcache.Options{}, 4))
	var wg sync.WaitGroup
	results := make([][]machine.Placement, 8)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a := p.NewArena()
			out := make([]machine.Placement, len(queries))
			for i := range queries {
				st := queries[i]
				out[i] = p.PlaceR(a, &st)
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("goroutine %d diverged from the serial replay", g)
		}
	}
}
