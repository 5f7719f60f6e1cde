// Job sources: the fleet consumes arrivals as a stream, never a slice, so
// a billion-job trace costs O(1) memory at this layer. TraceSource adapts
// a workload trace stream (scripted, file-loaded or lazily generated
// Poisson) into dispatch-ready jobs using the same §V-B reference
// measurements — and the same target-scaling arithmetic — as
// TargetCache.DynamicWork, so a job means exactly the same thing at fleet
// scale as in a single-machine run.
package fleet

import (
	"fmt"

	"synpa/internal/apps"
	"synpa/internal/core"
	"synpa/internal/machine"
	"synpa/internal/workload"
)

// Job is one dispatch-ready arrival.
type Job struct {
	// ID is the global stream index — the identity that seeds the job's
	// private RNG stream, keys the admission queue and names the job to
	// the placement policy, at any fleet size.
	ID int
	// App is the machine-level work description.
	App machine.DynamicApp
	// IsoCycles is the isolated execution time of the job's scaled work,
	// the normalization denominator for response times.
	IsoCycles float64
	// Cats is the application's isolated category fraction vector, one
	// entry per category of the dispatch model (nil when the source does
	// not characterise apps); the interference-aware dispatcher scores
	// machines with it.
	Cats []float64
}

// Source yields jobs in non-decreasing ArriveAt order. After Next returns
// false, Err reports whether the stream ended cleanly.
type Source interface {
	// Name identifies the source in reports.
	Name() string
	// Next returns the next job, or false at end of stream.
	Next() (Job, bool)
	// Err returns the first stream error, nil on clean exhaustion.
	Err() error
}

// appInfo memoises one application's reference measurements.
type appInfo struct {
	model  *apps.Model
	target uint64
	ipc    float64
	cats   []float64
}

// traceSource adapts a workload trace stream into fleet jobs.
type traceSource struct {
	tc      *workload.TargetCache
	ts      workload.TraceStream
	extract core.Extractor // nil: no characterisation
	width   int
	memo    map[string]*appInfo

	n       int
	last    uint64
	started bool
	err     error
	done    bool
}

// NewTraceSource adapts a trace stream into a job source using the cache's
// reference measurements. A non-nil model additionally characterises each
// application by its isolated category fractions, read at the machines'
// dispatch width with the model's own extractor (core.ExtractorFor), which
// the interference dispatcher requires; a nil model skips the
// characterisation, and a model with no extractor ends the stream with
// that error. Measurements are memoised per application, so a stream of a
// million jobs over a twenty-app catalogue costs twenty isolated runs.
func NewTraceSource(tc *workload.TargetCache, ts workload.TraceStream, model *core.Model, width int) Source {
	s := &traceSource{tc: tc, ts: ts, width: width, memo: map[string]*appInfo{}}
	if model != nil {
		if s.extract, s.err = core.ExtractorFor(model.K()); s.err != nil {
			s.err = fmt.Errorf("fleet: source %q: %w", ts.Name(), s.err)
			s.done = true
		}
	}
	return s
}

func (s *traceSource) Name() string { return s.ts.Name() }

func (s *traceSource) Err() error { return s.err }

// info returns the application's memoised measurements.
func (s *traceSource) info(name string) (*appInfo, error) {
	if in, ok := s.memo[name]; ok {
		return in, nil
	}
	m, err := apps.ByName(name)
	if err != nil {
		return nil, err
	}
	target, err := s.tc.Target(m)
	if err != nil {
		return nil, err
	}
	ipc, err := s.tc.IsolatedIPC(m)
	if err != nil {
		return nil, err
	}
	in := &appInfo{model: m, target: target, ipc: ipc}
	if s.extract != nil {
		counters, err := s.tc.IsolatedCounters(m)
		if err != nil {
			return nil, err
		}
		in.cats = s.extract(nil, counters, s.width)
	}
	s.memo[name] = in
	return in, nil
}

func (s *traceSource) fail(err error) (Job, bool) {
	s.err = err
	s.done = true
	return Job{}, false
}

func (s *traceSource) Next() (Job, bool) {
	if s.done {
		return Job{}, false
	}
	e, ok := s.ts.Next()
	if !ok {
		s.done = true
		s.err = s.ts.Err()
		return Job{}, false
	}
	if err := e.Check(); err != nil {
		return s.fail(fmt.Errorf("fleet: source %q job %d: %w", s.ts.Name(), s.n, err))
	}
	if s.started && e.ArriveAt < s.last {
		return s.fail(fmt.Errorf("fleet: source %q job %d arrives at %d after cycle %d; streams must be time-ordered",
			s.ts.Name(), s.n, e.ArriveAt, s.last))
	}
	in, err := s.info(e.App)
	if err != nil {
		return s.fail(fmt.Errorf("fleet: source %q job %d: %w", s.ts.Name(), s.n, err))
	}
	// The exact DynamicWork scaling: zero Work means the full reference
	// target, and a scaled target never rounds to nothing.
	w := e.Work
	if w == 0 {
		w = 1
	}
	scaled := uint64(float64(in.target) * w)
	if scaled == 0 {
		scaled = 1
	}
	j := Job{
		ID: s.n,
		App: machine.DynamicApp{
			Model:    in.model,
			Target:   scaled,
			ArriveAt: e.ArriveAt,
			Priority: e.Priority,
			Weight:   e.Weight,
		},
		IsoCycles: float64(scaled) / in.ipc,
		Cats:      in.cats,
	}
	s.n++
	s.last = e.ArriveAt
	s.started = true
	return j, true
}
