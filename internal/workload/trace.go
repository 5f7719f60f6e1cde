package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"synpa/internal/apps"
	"synpa/internal/machine"
	"synpa/internal/stats"
)

// TraceEntry is one arrival of an open-system (dynamic) workload.
type TraceEntry struct {
	// App is the application name (paper Table III catalogue).
	App string
	// ArriveAt is the machine cycle at which the application enters the
	// system and asks for a hardware thread.
	ArriveAt uint64
	// Work scales the application's reference instruction target (the
	// §V-B isolated-run target): 1.0 runs the full reference work, 0.5
	// half of it. Zero means 1.0.
	Work float64
	// Priority is the arrival's class; higher is more urgent. The
	// default class is 0. Priority-aware admission policies
	// (internal/admission) order the waiting queue on it, and the
	// dynamic report breaks response-time metrics out per class.
	Priority int
	// Weight is the arrival's class weight for the weighted-STP summary;
	// zero means 1. It does not influence admission order.
	Weight float64
}

// MaxPriority bounds the accepted priority classes; large enough for any
// sensible class scheme, small enough that aging arithmetic cannot
// overflow.
const MaxPriority = 1 << 20

// MaxWorkFactor bounds the accepted work factors: large enough for any
// realistic job, small enough that scaling a reference instruction target
// by it cannot overflow uint64.
const MaxWorkFactor = 1e6

// Trace is an open-system arrival schedule: applications arrive at their
// trace times, execute their (finite) work and depart. It is the dynamic
// counterpart of the closed Workload.
type Trace struct {
	Name    string
	Entries []TraceEntry
}

// Names returns the application names in trace order.
func (t *Trace) Names() []string {
	out := make([]string, len(t.Entries))
	for i := range t.Entries {
		out[i] = t.Entries[i].App
	}
	return out
}

// Validate checks the trace: at least one entry, known applications,
// non-negative work factors.
func (t *Trace) Validate() error {
	if len(t.Entries) == 0 {
		return fmt.Errorf("workload: trace %q has no arrivals", t.Name)
	}
	for i := range t.Entries {
		if err := t.Entries[i].Check(); err != nil {
			return fmt.Errorf("workload: trace %q entry %d: %w", t.Name, i, err)
		}
	}
	return nil
}

// Span returns the latest arrival cycle of the trace (entries need not be
// sorted).
func (t *Trace) Span() uint64 {
	var span uint64
	for i := range t.Entries {
		if t.Entries[i].ArriveAt > span {
			span = t.Entries[i].ArriveAt
		}
	}
	return span
}

// DynamicWork converts a trace into the machine's open-system work list
// using the cache's §V-B reference measurements: each entry's target is the
// app's reference instruction target scaled by its Work factor, and
// isoCycles[i] is the isolated execution time (in cycles) of that same
// scaled work — the normalization denominator for response times. Both the
// public System.RunDynamic and the experiment suite build their runs
// through this single definition.
func (tc *TargetCache) DynamicWork(t Trace) (work []machine.DynamicApp, isoCycles []float64, err error) {
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	work = make([]machine.DynamicApp, len(t.Entries))
	isoCycles = make([]float64, len(t.Entries))
	for i, e := range t.Entries {
		m, err := apps.ByName(e.App)
		if err != nil {
			return nil, nil, err
		}
		target, err := tc.Target(m)
		if err != nil {
			return nil, nil, err
		}
		ipc, err := tc.IsolatedIPC(m)
		if err != nil {
			return nil, nil, err
		}
		w := e.Work
		if w == 0 {
			w = 1
		}
		scaled := uint64(float64(target) * w)
		if scaled == 0 {
			scaled = 1
		}
		work[i] = machine.DynamicApp{
			Model:    m,
			Target:   scaled,
			ArriveAt: e.ArriveAt,
			Priority: e.Priority,
			Weight:   e.Weight,
		}
		isoCycles[i] = float64(scaled) / ipc
	}
	return work, isoCycles, nil
}

// DynamicStats are the open-system aggregate metrics of one dynamic run.
type DynamicStats struct {
	// Completed counts apps that finished within the run bound.
	Completed int
	// MeanResponseCycles averages response time over completed apps.
	MeanResponseCycles float64
	// ANTT is the mean normalized response time over completed apps:
	// response / isolated time of the same work (lower is better).
	ANTT float64
	// STP is the completed isolated-app work per cycle (higher is
	// better; bounded by the hardware-thread count).
	STP float64
	// WeightedSTP is STP with each completed app's isolated work scaled
	// by its class weight, normalized by the mean weight of the completed
	// apps so that uniform weights reproduce STP exactly. It summarises
	// the latency-vs-batch-throughput trade of priority-aware admission:
	// a policy that favours heavy classes keeps WeightedSTP up even when
	// plain STP dips.
	WeightedSTP float64
	// PerClass breaks the response-time metrics out by priority class,
	// most urgent class first. Empty when every arrival is class 0 with
	// default weight (the fully backward-compatible case).
	PerClass []ClassStats
}

// ClassStats are one priority class's open-system metrics.
type ClassStats struct {
	// Priority is the class; higher is more urgent.
	Priority int
	// Weight is the mean class weight over the class's arrivals.
	Weight float64
	// Apps counts the class's arrivals; Completed those that finished.
	Apps, Completed int
	// MeanResponseCycles and P95ResponseCycles summarise the class's
	// response-time distribution over completed apps (zero when none
	// completed).
	MeanResponseCycles float64
	P95ResponseCycles  float64
	// ANTT is the class's mean normalized response time over completed
	// apps (zero when none completed — no best-looking phantom score).
	ANTT float64
}

// SummarizeDynamic computes the open-system metrics of a dynamic result
// against the isolated times returned by DynamicWork.
func SummarizeDynamic(res *machine.DynamicResult, isoCycles []float64) DynamicStats {
	var st DynamicStats
	var respSum, normSum, isoDone, wIsoDone, wSum float64
	classes := map[int]*ClassStats{}
	responses := map[int][]float64{}
	uniform := true
	for i := range res.Apps {
		a := &res.Apps[i]
		if a.Priority != 0 || (a.Weight != 0 && a.Weight != 1) {
			uniform = false
		}
		cs := classes[a.Priority]
		if cs == nil {
			cs = &ClassStats{Priority: a.Priority}
			classes[a.Priority] = cs
		}
		w := a.Weight
		if w == 0 {
			w = 1
		}
		// Mean class weight over arrivals, accumulated incrementally.
		cs.Weight += (w - cs.Weight) / float64(cs.Apps+1)
		cs.Apps++
		if !a.Finished {
			continue
		}
		st.Completed++
		cs.Completed++
		resp := float64(a.ResponseCycles)
		norm := resp / isoCycles[i]
		respSum += resp
		normSum += norm
		isoDone += isoCycles[i]
		wIsoDone += w * isoCycles[i]
		wSum += w
		cs.MeanResponseCycles += resp
		cs.ANTT += norm
		responses[a.Priority] = append(responses[a.Priority], resp)
	}
	if st.Completed > 0 {
		st.MeanResponseCycles = respSum / float64(st.Completed)
		st.ANTT = normSum / float64(st.Completed)
	}
	if res.Cycles > 0 {
		st.STP = isoDone / float64(res.Cycles)
		if meanW := wSum / float64(max(st.Completed, 1)); meanW > 0 {
			st.WeightedSTP = wIsoDone / meanW / float64(res.Cycles)
		}
	}
	if !uniform {
		// Iterate the class map through sorted keys (most urgent first)
		// so PerClass never observes map iteration order — the maporder
		// lint invariant for everything that reaches reports.
		prios := make([]int, 0, len(classes))
		for prio := range classes {
			prios = append(prios, prio)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(prios)))
		for _, prio := range prios {
			cs := classes[prio]
			if cs.Completed > 0 {
				cs.MeanResponseCycles /= float64(cs.Completed)
				cs.ANTT /= float64(cs.Completed)
				cs.P95ResponseCycles, _ = stats.Percentile(responses[prio], 0.95)
			}
			st.PerClass = append(st.PerClass, *cs)
		}
	}
	return st
}

// PoissonTrace generates a deterministic open-system trace with Poisson
// arrivals: inter-arrival gaps are exponential draws with the given mean
// (in cycles) and each arrival picks uniformly from pool. The same seed
// always yields the same trace, so Poisson scenarios are as reproducible
// as scripted ones. An empty pool or non-positive n yields an empty trace,
// which fails Validate with a usable message.
func PoissonTrace(name string, seed uint64, pool []string, n int, meanGapCycles float64, work float64) Trace {
	return PoissonTraceMixed(name, seed, pool, n, meanGapCycles, work, nil)
}

// ClassShare is one priority class's share of a mixed-priority trace.
type ClassShare struct {
	// Priority is the class; higher is more urgent.
	Priority int
	// Weight is the class weight carried into the weighted-STP summary.
	Weight float64
	// Share is the class's relative arrival frequency; shares need not
	// sum to 1 (they are normalized over the slice).
	Share float64
	// Work overrides the trace-level work factor for this class's
	// arrivals; zero inherits it. Distinct per-class work factors make
	// job size and class orthogonal, which is what separates size-based
	// admission (SJF, backfill) from class-based admission (priority).
	Work float64
}

// PoissonTraceMixed generates a deterministic Poisson trace whose arrivals
// draw a priority class from the given mix: each arrival picks its class
// with probability proportional to the class's Share. Like PoissonTrace,
// the same seed always yields the same trace. A nil or empty mix draws no
// class at all, so the result is bit-identical to PoissonTrace with the
// same parameters. It materialises PoissonStreamMixed, the one generator.
func PoissonTraceMixed(name string, seed uint64, pool []string, n int, meanGapCycles, work float64, mix []ClassShare) Trace {
	return Collect(PoissonStreamMixed(name, seed, pool, n, meanGapCycles, work, mix), 0)
}

// ParseTrace reads a scripted trace. The format is line-oriented:
//
//	# comment (also after entries)
//	<arrive_cycle> <app_name> [work_factor [priority [weight]]]
//
// e.g.
//
//	0      mcf
//	0      leela_r
//	40000  lbm_r    0.5       # arrives mid-run, does half the reference work
//	80000  mcf      1    2    # priority class 2 (higher = more urgent)
//	90000  gobmk    1    2 4  # class 2 with weight 4 in the weighted STP
//
// priority (integer ≥ 0, default class 0) orders the admission queue under
// priority-aware policies; weight (positive, default 1) scales the entry in
// the weighted-STP summary. Entries need not be sorted; the runner orders
// arrivals by cycle.
func ParseTrace(name string, r io.Reader) (Trace, error) {
	t := Trace{Name: name}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 || len(fields) > 5 {
			return Trace{}, fmt.Errorf("workload: trace %q line %d: want \"<cycle> <app> [work [priority [weight]]]\", got %q",
				name, lineNo, sc.Text())
		}
		at, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return Trace{}, fmt.Errorf("workload: trace %q line %d: bad arrival cycle %q", name, lineNo, fields[0])
		}
		e := TraceEntry{App: fields[1], ArriveAt: at}
		if len(fields) >= 3 {
			// An explicit 0 is rejected rather than silently meaning the
			// in-memory default of "full reference work" — the one value
			// whose meaning would invert the author's intent.
			w, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || w <= 0 || w > MaxWorkFactor || math.IsNaN(w) {
				return Trace{}, fmt.Errorf("workload: trace %q line %d: work factor %q must be a positive number ≤ %g", name, lineNo, fields[2], float64(MaxWorkFactor))
			}
			e.Work = w
		}
		if len(fields) >= 4 {
			p, err := strconv.Atoi(fields[3])
			if err != nil || p < 0 || p > MaxPriority {
				return Trace{}, fmt.Errorf("workload: trace %q line %d: priority %q must be an integer in [0,%d]",
					name, lineNo, fields[3], MaxPriority)
			}
			e.Priority = p
		}
		if len(fields) == 5 {
			w, err := strconv.ParseFloat(fields[4], 64)
			if err != nil || w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
				return Trace{}, fmt.Errorf("workload: trace %q line %d: weight %q must be a positive finite number", name, lineNo, fields[4])
			}
			e.Weight = w
		}
		t.Entries = append(t.Entries, e)
	}
	if err := sc.Err(); err != nil {
		return Trace{}, fmt.Errorf("workload: trace %q: %w", name, err)
	}
	if err := t.Validate(); err != nil {
		return Trace{}, err
	}
	return t, nil
}
