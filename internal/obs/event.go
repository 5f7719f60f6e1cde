package obs

// Op identifies what an Event records.
type Op uint8

// The instrumented decision points, in lifecycle order.
const (
	// OpArrive: a job reached a machine's arrival queue. T is the
	// dispatch cycle, App the job ID, A the trace arrival cycle.
	OpArrive Op = iota
	// OpAdmit: a job moved from the queue onto a hardware thread. T is
	// the admission cycle, App the job ID, A the cycles it queued.
	OpAdmit
	// OpQueue: admission-queue depth at a slice plan. T is the plan
	// cycle, A the queued-job count, B the live-job count.
	OpQueue
	// OpPlace: one placement decision. T is the plan cycle, A the slice
	// index, B the thread rebinds the new placement required. Vals, when
	// present, carries [predcache invert hits, invert misses] deltas for
	// this decision — the policy internals.
	OpPlace
	// OpExec: one job's execution over one slice on one hardware thread.
	// T is the slice start, Dur its length, Core the hardware thread,
	// App the job ID, A the instructions retired, B the cycles the
	// core's fast-forward tiers bulk-skipped during the slice.
	OpExec
	// OpDepart: a job completed. T is the completion cycle, App the job
	// ID, A the response cycles (completion − arrival).
	OpDepart
	// OpDispatch: the fleet chose a machine for an arrival. T is the
	// arrival cycle, Machine the chosen machine, App the job ID, A the
	// chosen machine's committed load. Vals, when present, carries the
	// per-machine candidate scores the dispatcher compared.
	OpDispatch
	numOps
)

var opNames = [numOps]string{
	"arrive", "admit", "queue", "place", "exec", "depart", "dispatch",
}

// String returns the op's wire name (the JSONL "op" field).
func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return "unknown"
}

// Event is one simulation-time observation. All times are simulated cycles
// — never wall-clock — which is what keeps traces bit-identical across
// worker counts and hosts.
type Event struct {
	// T is the event's simulated cycle; Dur its span length (0 for
	// instants).
	T, Dur uint64
	// Machine and Core locate the event; Core is a hardware-thread index
	// (core·SMTLevel + slot) and either may be -1 when not applicable.
	Machine, Core int32
	// App is the job or application identity (-1 when not applicable).
	App int64
	// Op says what happened; A and B are its payload (see the Op docs).
	Op   Op
	A, B int64
	// Name is the application's benchmark name on exec/depart events
	// (a shared string, not a copy); empty otherwise.
	Name string
	// Vals carries op-specific float payloads (dispatch candidate
	// scores, predcache deltas); nil for most events.
	Vals []float64
}
