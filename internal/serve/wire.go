// Package serve is the placement-as-a-service HTTP surface: a long-lived
// daemon (cmd/synpad) that loads a trained interference model once and
// answers placement queries over the reentrant policy path — one read-mostly
// core.Policy, one core.Arena per request from a sync.Pool, an optional
// predcache.Shared warming across all in-flight requests.
//
// # Wire format
//
// Requests and responses are JSON. A placement query carries exactly the
// fields of machine.QuantumState. The server decodes it in a single pass
// with no reflection (decode.go): keys are matched on their bytes and
// integers parsed in place, straight into a PlaceRequest. It accepts what
// encoding/json with DisallowUnknownFields accepts, decoded to the same
// value, with two stricter rules: a key must be spelled exactly as its
// field's tag (case-sensitive, no escapes), and only whitespace may follow
// the object. Integers are parsed as digits, never through float64, so a
// uint64 PMU delta round-trips bit-exactly and the bits a query carries
// over HTTP are the bits PlaceR keys its memos with. Responses carry only
// float64 degradations and integer placements, encoded by encoding/json;
// Go marshals float64 via shortest-representation encoding, which parses
// back to the identical bits — equal values therefore imply equal bytes,
// the property the HTTP-vs-in-process differential gate compares. A
// response that cannot be encoded (a non-finite degradation) is answered
// as a 500 error, or as an error line in a batch.
//
// # Statelessness
//
// Serving queries are stateless by design: each request carries its own
// previous placement and PMU samples, and PlaceOne resets the arena's
// cross-request smoothing history before deciding, so a pooled arena
// answers exactly like a freshly built one. Cross-quantum smoothing is the
// client's to carry (resubmit the evolving Prev/Samples each quantum); what
// the pool and the shared cache retain between requests are only the
// exact-bit-keyed memos of pure functions — warm caches change latency,
// never a result bit.
package serve

import (
	"fmt"

	"synpa/internal/core"
	"synpa/internal/machine"
	"synpa/internal/pmu"
	"synpa/internal/smtcore"
)

// PlaceRequest is one placement query: the machine.QuantumState of the
// deciding quantum, in wire form. NumCores and NumApps are required; the
// rest mirror QuantumState's optional views (a query without samples gets
// the arrival-order cold placement, exactly like the first quantum of a
// run).
type PlaceRequest struct {
	// NumCores is the machine size (at most MaxCores); NumApps the
	// live-application count (at most NumCores × the SMT level).
	NumCores int `json:"num_cores"`
	NumApps  int `json:"num_apps"`
	// SMTLevel is the hardware threads per core (0 selects the SMT2
	// default); DispatchWidth the core dispatch width (0 selects the
	// ThunderX2's 4).
	SMTLevel      int `json:"smt_level,omitempty"`
	DispatchWidth int `json:"dispatch_width,omitempty"`
	// Quantum is the 0-based index of the quantum about to execute.
	Quantum int `json:"quantum,omitempty"`
	// AppIDs carries stable app identities (dynamic live sets); nil means
	// index i is identity i.
	AppIDs []int `json:"app_ids,omitempty"`
	// Prev is the placement executed last quantum (-1 = unplaced); nil
	// before the first quantum.
	Prev []int `json:"prev,omitempty"`
	// Samples holds each app's PMU deltas over the previous quantum, one
	// row of pmu.NumEvents uint64 values per app; nil before the first
	// quantum.
	Samples [][]uint64 `json:"samples,omitempty"`
	// Priorities carries each app's class for priority-aware policies.
	Priorities []int `json:"priorities,omitempty"`
}

// PlaceResponse is one placement answer.
type PlaceResponse struct {
	// Placement maps each application index to its assigned core.
	Placement []int `json:"placement"`
	// Degradations predicts, per application, the slowdown it will suffer
	// under the returned placement (1.0 = runs at ST speed, solo). Omitted
	// for cold queries (no samples: nothing to predict from).
	Degradations []float64 `json:"degradations,omitempty"`
	// Policy names the deciding policy configuration.
	Policy string `json:"policy"`
}

// ErrorResponse is the structured error body every non-2xx answer carries.
type ErrorResponse struct {
	Error string `json:"error"`
}

// MaxCores bounds a query's num_cores. A decision builds a
// (2·num_cores)² pair-cost matrix whatever num_apps is, so an unbounded
// count would let a tiny request demand gigabytes; 64 covers a
// dual-socket ThunderX2 (2 × 32 cores).
const MaxCores = 64

// Validate checks the query's shape against the QuantumState contract.
func (q *PlaceRequest) Validate() error {
	if q.NumCores <= 0 || q.NumCores > MaxCores {
		return fmt.Errorf("num_cores %d outside [1, %d]", q.NumCores, MaxCores)
	}
	if q.DispatchWidth < 0 {
		return fmt.Errorf("dispatch_width must not be negative (got %d)", q.DispatchWidth)
	}
	level := q.SMTLevel
	if level == 0 {
		level = smtcore.DefaultSMTLevel
	}
	if level < 1 || level > smtcore.MaxSMTLevel {
		return fmt.Errorf("smt_level %d outside [1, %d]", q.SMTLevel, smtcore.MaxSMTLevel)
	}
	if q.NumApps <= 0 {
		return fmt.Errorf("num_apps must be positive (got %d)", q.NumApps)
	}
	if max := q.NumCores * level; q.NumApps > max {
		return fmt.Errorf("num_apps %d exceeds %d cores x SMT%d = %d hardware threads",
			q.NumApps, q.NumCores, level, max)
	}
	if q.AppIDs != nil && len(q.AppIDs) != q.NumApps {
		return fmt.Errorf("app_ids has %d entries for %d apps", len(q.AppIDs), q.NumApps)
	}
	// Identities must be distinct: the identity-aware smoothing keys each
	// app's history on its ID, so a repeated ID would merge two apps'
	// histories. Quadratic, but num_apps is at most MaxCores × MaxSMTLevel
	// and the scan allocates nothing.
	for i, id := range q.AppIDs {
		for j := range i {
			if q.AppIDs[j] == id {
				return fmt.Errorf("app_ids[%d] = %d repeats app_ids[%d]", i, id, j)
			}
		}
	}
	if q.Prev != nil && len(q.Prev) != q.NumApps {
		return fmt.Errorf("prev has %d entries for %d apps", len(q.Prev), q.NumApps)
	}
	for i, c := range q.Prev {
		if c < machine.Unplaced || c >= q.NumCores {
			return fmt.Errorf("prev[%d] = %d outside [-1, %d)", i, c, q.NumCores)
		}
	}
	if q.Samples != nil {
		if len(q.Samples) != q.NumApps {
			return fmt.Errorf("samples has %d rows for %d apps", len(q.Samples), q.NumApps)
		}
		for i, row := range q.Samples {
			if len(row) != int(pmu.NumEvents) {
				return fmt.Errorf("samples[%d] has %d counters, want %d", i, len(row), pmu.NumEvents)
			}
		}
	}
	if q.Priorities != nil && len(q.Priorities) != q.NumApps {
		return fmt.Errorf("priorities has %d entries for %d apps", len(q.Priorities), q.NumApps)
	}
	return nil
}

// state converts the validated query into the QuantumState PlaceR consumes.
func (q *PlaceRequest) state() *machine.QuantumState {
	st := &machine.QuantumState{
		Quantum:       q.Quantum,
		NumCores:      q.NumCores,
		NumApps:       q.NumApps,
		AppIDs:        q.AppIDs,
		Priorities:    q.Priorities,
		SMTLevel:      q.SMTLevel,
		DispatchWidth: q.DispatchWidth,
	}
	if st.DispatchWidth == 0 {
		st.DispatchWidth = smtcore.DefaultConfig().DispatchWidth
	}
	if q.Prev != nil {
		st.Prev = machine.Placement(q.Prev)
	}
	if q.Samples != nil {
		st.Samples = make([]pmu.Counters, len(q.Samples))
		for i, row := range q.Samples {
			copy(st.Samples[i][:], row)
		}
	}
	return st
}

// RequestFromState converts a QuantumState into its wire form — the inverse
// of PlaceRequest.state, used by the loopback bench and the differential
// tests to ship recorded simulator queries over HTTP bit-exactly.
func RequestFromState(st *machine.QuantumState) *PlaceRequest {
	q := &PlaceRequest{
		Quantum:       st.Quantum,
		NumCores:      st.NumCores,
		NumApps:       st.NumApps,
		SMTLevel:      st.SMTLevel,
		DispatchWidth: st.DispatchWidth,
		AppIDs:        st.AppIDs,
		Prev:          st.Prev,
		Priorities:    st.Priorities,
	}
	if st.Samples != nil {
		q.Samples = make([][]uint64, len(st.Samples))
		for i := range st.Samples {
			q.Samples[i] = append([]uint64(nil), st.Samples[i][:]...)
		}
	}
	return q
}

// PlaceOne answers one placement query through the given policy and arena:
// validate, reset the arena's cross-request history, decide, and predict
// the per-app degradations under the decided placement. It is the single
// decision function behind both the HTTP handler and the in-process half of
// the differential gate — both sides run exactly this code, so the HTTP
// layer can only add transport, never decision drift.
func PlaceOne(p *core.Policy, a *core.Arena, q *PlaceRequest) (*PlaceResponse, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	a.Reset()
	st := q.state()
	place := p.PlaceR(a, st)
	return &PlaceResponse{
		Placement:    place,
		Degradations: degradations(p.Model(), a.LastSTEstimates(), place, st),
		Policy:       p.Name(),
	}, nil
}

// degradations predicts each application's slowdown under the decided
// placement from the arena's fresh ST estimates: 1.0 for a solo app, the
// forward model against the co-runner (mean co-runner vector above SMT2 —
// the grouped path's own idiom) otherwise. Returns nil for cold decisions
// (no model-driven estimates).
func degradations(m *core.Model, est [][]float64, place machine.Placement, st *machine.QuantumState) []float64 {
	n := st.NumApps
	if est == nil || len(est) < n {
		return nil
	}
	groups := place.PairsOf(st.NumCores)
	out := make([]float64, n)
	mean := make([]float64, m.K())
	for c := range groups {
		for _, i := range groups[c] {
			if i >= n {
				continue
			}
			co := 0
			for k := range mean {
				mean[k] = 0
			}
			for _, j := range groups[c] {
				if j == i || j >= n {
					continue
				}
				for k, v := range est[j] {
					mean[k] += v
				}
				co++
			}
			if co == 0 {
				out[i] = 1 // solo: runs at ST speed by definition
				continue
			}
			for k := range mean {
				mean[k] /= float64(co)
			}
			out[i] = m.PredictSlowdown(est[i], mean)
		}
	}
	return out
}
