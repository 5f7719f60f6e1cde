// Streaming trace sources: the fleet consumes arrivals one at a time, in
// non-decreasing ArriveAt order, so a million-job trace never has to be
// materialised. TraceStream is the iterator contract; StreamTrace adapts an
// in-memory Trace (sorting a copy of its order, not its entries), and
// PoissonStream/PoissonStreamMixed are the one Poisson generator, in O(1)
// memory; PoissonTrace/PoissonTraceMixed materialise it, so a streamed and
// a materialised trace with the same parameters hold the same entries
// (pinned by digest in stream_test.go).
package workload

import (
	"fmt"
	"math"
	"sort"

	"synpa/internal/apps"
	"synpa/internal/xrand"
)

// TraceStream is a lazy open-system arrival source. Next returns entries in
// non-decreasing ArriveAt order until the stream is exhausted (ok=false);
// Err reports a generation error after exhaustion (nil on clean end).
type TraceStream interface {
	// Name labels the stream (scenario name).
	Name() string
	// Next returns the next arrival; ok is false at end of stream.
	Next() (e TraceEntry, ok bool)
	// Err returns the first generation error, if any, once ok is false.
	Err() error
}

// Check validates one trace entry: known application, bounded work factor,
// priority and weight. It is the per-entry body of Trace.Validate, shared
// with streaming consumers that never see a whole Trace.
func (e *TraceEntry) Check() error {
	if _, err := apps.ByName(e.App); err != nil {
		return err
	}
	if e.Work < 0 || e.Work > MaxWorkFactor || math.IsNaN(e.Work) {
		return fmt.Errorf("work factor %v must be in [0,%g]", e.Work, float64(MaxWorkFactor))
	}
	if e.Priority < 0 || e.Priority > MaxPriority {
		return fmt.Errorf("priority %d outside [0,%d]", e.Priority, MaxPriority)
	}
	if e.Weight < 0 || math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
		return fmt.Errorf("weight %v must be finite and non-negative", e.Weight)
	}
	return nil
}

// sliceStream iterates a materialised trace in arrival order.
type sliceStream struct {
	name    string
	entries []TraceEntry
	order   []int
	next    int
}

// StreamTrace adapts an in-memory trace to the streaming contract. The
// trace's entries need not be sorted; the stream visits them by arrival
// cycle, ties in trace order — the same order RunDynamic sorts arrivals.
func StreamTrace(t Trace) TraceStream {
	order := make([]int, len(t.Entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return t.Entries[order[a]].ArriveAt < t.Entries[order[b]].ArriveAt
	})
	return &sliceStream{name: t.Name, entries: t.Entries, order: order}
}

func (s *sliceStream) Name() string { return s.name }
func (s *sliceStream) Err() error   { return nil }

func (s *sliceStream) Next() (TraceEntry, bool) {
	if s.next >= len(s.order) {
		return TraceEntry{}, false
	}
	e := s.entries[s.order[s.next]]
	s.next++
	return e, true
}

// poissonStream generates the PoissonTraceMixed entry sequence lazily.
type poissonStream struct {
	name    string
	rng     *xrand.RNG
	pool    []string
	n       int
	i       int
	meanGap float64
	work    float64
	mix     []ClassShare
	total   float64
	at      float64
}

// PoissonStream is the lazy equivalent of PoissonTrace: the same seed
// yields the same arrivals, one at a time, without materialising the trace.
func PoissonStream(name string, seed uint64, pool []string, n int, meanGapCycles float64, work float64) TraceStream {
	return PoissonStreamMixed(name, seed, pool, n, meanGapCycles, work, nil)
}

// PoissonStreamMixed is the lazy equivalent of PoissonTraceMixed, which
// collects it: the identical entry sequence for identical parameters, in
// O(1) memory. An empty pool or non-positive n yields an empty stream.
func PoissonStreamMixed(name string, seed uint64, pool []string, n int, meanGapCycles, work float64, mix []ClassShare) TraceStream {
	s := &poissonStream{
		name:    name,
		pool:    pool,
		n:       n,
		meanGap: meanGapCycles,
		work:    work,
		mix:     mix,
	}
	if len(pool) == 0 || n <= 0 {
		s.n = 0
		return s
	}
	for _, c := range mix {
		if c.Share > 0 {
			s.total += c.Share
		}
	}
	s.rng = xrand.New(seed)
	return s
}

func (s *poissonStream) Name() string { return s.name }
func (s *poissonStream) Err() error   { return nil }

func (s *poissonStream) Next() (TraceEntry, bool) {
	if s.i >= s.n {
		return TraceEntry{}, false
	}
	if s.i > 0 {
		s.at += s.rng.Exp(s.meanGap)
	}
	e := TraceEntry{
		App:      s.pool[s.rng.Intn(len(s.pool))],
		ArriveAt: uint64(s.at),
		Work:     s.work,
	}
	if s.total > 0 {
		// Cumulative-share draw; round-off that walks past the last
		// eligible class lands on it.
		r := s.rng.Float64() * s.total
		chosen := -1
		for idx, c := range s.mix {
			if c.Share <= 0 {
				continue
			}
			chosen = idx
			if r -= c.Share; r < 0 {
				break
			}
		}
		if chosen >= 0 {
			e.Priority = s.mix[chosen].Priority
			e.Weight = s.mix[chosen].Weight
			if s.mix[chosen].Work > 0 {
				e.Work = s.mix[chosen].Work
			}
		}
	}
	s.i++
	return e, true
}

// funcStream adapts a generator function to the streaming contract.
type funcStream struct {
	name string
	gen  func(i int) (TraceEntry, bool)
	i    int
	done bool
}

// StreamFunc builds a stream from a generator: gen(i) returns the i-th
// arrival, or ok=false to end the stream. The generator must emit
// non-decreasing arrival cycles (the fleet's event clock relies on it).
func StreamFunc(name string, gen func(i int) (TraceEntry, bool)) TraceStream {
	return &funcStream{name: name, gen: gen}
}

func (s *funcStream) Name() string { return s.name }
func (s *funcStream) Err() error   { return nil }

func (s *funcStream) Next() (TraceEntry, bool) {
	if s.done {
		return TraceEntry{}, false
	}
	e, ok := s.gen(s.i)
	if !ok {
		s.done = true
		return TraceEntry{}, false
	}
	s.i++
	return e, true
}

// Collect materialises up to max entries of a stream into a Trace —
// test and tooling helper, not a fleet path (the fleet never collects).
// A max of 0 drains the stream.
func Collect(ts TraceStream, max int) Trace {
	t := Trace{Name: ts.Name()}
	for max <= 0 || len(t.Entries) < max {
		e, ok := ts.Next()
		if !ok {
			break
		}
		t.Entries = append(t.Entries, e)
	}
	return t
}
