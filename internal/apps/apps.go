// Package apps provides synthetic models of the 28 applications the paper
// evaluates (SPEC CPU 2006/2017 benchmarks, Table III). The real binaries
// and their inputs are not available in this environment, so each benchmark
// is replaced by a phase-based stochastic model of its dispatch-stage
// behaviour (DESIGN.md §2): per phase, an instruction-level-parallelism
// figure plus event rates and durations for the three stall sources that
// matter at dispatch — instruction-cache misses, branch mispredictions and
// long-latency (blocking) loads — and the cache/bandwidth footprints through
// which the application pressures a co-runner.
//
// The models are calibrated so that the isolated-execution characterization
// (paper Fig. 4) classifies them into the paper's groups: the six
// backend-bound applications exceed 65 % backend dispatch stalls, the five
// frontend-bound ones exceed 35 % frontend stalls, and the remaining 17 fall
// in between, with full-dispatch fractions spanning roughly 20 % (hmmer) to
// 61 % (nab_r). `leela_r` and `mcf_r` carry pronounced phase behaviour —
// they alternate frontend-dominated and backend-dominated phases — because
// the paper's Table V and Fig. 7 analyses depend on exactly that runtime
// dichotomy.
package apps

import (
	"fmt"
	"sort"

	"synpa/internal/xrand"
)

// Group is the paper's Table III classification.
type Group int

// Table III groups.
const (
	GroupBackend  Group = iota // backend dispatch stalls > 65 % of cycles
	GroupFrontend              // frontend dispatch stalls > 35 % of cycles
	GroupOther                 // everything else
)

// String returns the group label used in the paper.
func (g Group) String() string {
	switch g {
	case GroupBackend:
		return "Backend bound"
	case GroupFrontend:
		return "Frontend bound"
	case GroupOther:
		return "Others"
	}
	return fmt.Sprintf("Group(%d)", int(g))
}

// Profile describes the dispatch-stage behaviour of one execution phase.
// Rates are events per kilo-instruction (MPKI-style); durations are cycles.
type Profile struct {
	// ILP is the mean number of instructions the frontend can supply per
	// cycle when nothing stalls (1..DispatchWidth).
	ILP float64

	// ICacheMPKI and ICacheStall give the rate and mean duration of
	// frontend stalls caused by instruction-cache misses.
	ICacheMPKI  float64
	ICacheStall float64

	// BranchMPKI and BranchStall give the rate and mean duration of
	// frontend stalls caused by branch-misprediction squashes.
	BranchMPKI  float64
	BranchStall float64

	// MemMPKI and MemLat give the rate and mean latency of long-latency
	// loads that block retirement at the head of the ROB.
	MemMPKI float64
	MemLat  float64

	// LoadRatio and StoreRatio are the fractions of instructions that
	// occupy load-queue and store-queue entries.
	LoadRatio  float64
	StoreRatio float64

	// DepFrac is the fraction of in-flight instructions that depend on an
	// outstanding miss: it drives issue-queue pressure and the degree to
	// which consecutive misses serialise (memory-level parallelism).
	DepFrac float64

	// IFootprint, DFootprint and MemBW in [0,1] quantify the pressure the
	// application puts on the shared instruction cache, data caches and
	// memory bandwidth, felt by the SMT co-runner.
	IFootprint float64
	DFootprint float64
	MemBW      float64
}

// EventRate returns the combined stall-event rate per instruction.
func (p *Profile) EventRate() float64 {
	return (p.ICacheMPKI + p.BranchMPKI + p.MemMPKI) / 1000
}

// Phase is one segment of an application's execution.
type Phase struct {
	// Insts is the phase length in dispatched instructions.
	Insts uint64
	// Profile is the behaviour during the phase.
	Profile Profile
}

// Model is a named application with its phase schedule. Phases repeat
// cyclically for as long as the application runs.
type Model struct {
	Name   string
	Group  Group
	Phases []Phase
}

// TotalPhaseInsts returns the length of one full pass over the phases.
func (m *Model) TotalPhaseInsts() uint64 {
	var t uint64
	for _, p := range m.Phases {
		t += p.Insts
	}
	return t
}

// Validate checks that the model is well formed.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("apps: model with empty name")
	}
	if len(m.Phases) == 0 {
		return fmt.Errorf("apps: %s has no phases", m.Name)
	}
	for i, ph := range m.Phases {
		p := ph.Profile
		if ph.Insts == 0 {
			return fmt.Errorf("apps: %s phase %d has zero length", m.Name, i)
		}
		if p.ILP < 1 || p.ILP > 4 {
			return fmt.Errorf("apps: %s phase %d ILP %v outside [1,4]", m.Name, i, p.ILP)
		}
		if p.ICacheMPKI < 0 || p.BranchMPKI < 0 || p.MemMPKI < 0 {
			return fmt.Errorf("apps: %s phase %d has negative event rate", m.Name, i)
		}
		if p.LoadRatio < 0 || p.LoadRatio > 1 || p.StoreRatio < 0 || p.StoreRatio > 1 {
			return fmt.Errorf("apps: %s phase %d load/store ratio outside [0,1]", m.Name, i)
		}
		if p.DepFrac < 0 || p.DepFrac > 1 {
			return fmt.Errorf("apps: %s phase %d DepFrac outside [0,1]", m.Name, i)
		}
		if p.IFootprint < 0 || p.IFootprint > 1 || p.DFootprint < 0 || p.DFootprint > 1 ||
			p.MemBW < 0 || p.MemBW > 1 {
			return fmt.Errorf("apps: %s phase %d footprint outside [0,1]", m.Name, i)
		}
	}
	return nil
}

// Instance is one running copy of an application. Two instances of the same
// model (the two leela_r copies in workload fb2) are independent: each has
// its own position and random stream.
type Instance struct {
	Model *Model

	rng       *xrand.RNG
	phaseIdx  int
	intoPhase uint64

	// Dispatched counts instructions dispatched since launch (or last
	// relaunch); Retired counts architecturally committed instructions
	// cumulatively, matching the paper's methodology where counts keep
	// growing across relaunches.
	Dispatched uint64
	Retired    uint64
	// Launches counts how many times the application has been (re)started.
	Launches int
}

// NewInstance creates a fresh instance with a deterministic private stream.
func NewInstance(m *Model, seed uint64) *Instance {
	return &Instance{Model: m, rng: xrand.New(seed), Launches: 1}
}

// RNG exposes the instance's private random stream (used by the core
// simulator to draw this application's stall events).
func (in *Instance) RNG() *xrand.RNG { return in.rng }

// Profile returns the profile of the current phase.
func (in *Instance) Profile() *Profile {
	return &in.Model.Phases[in.phaseIdx].Profile
}

// PhaseIndex returns the index of the current phase.
func (in *Instance) PhaseIndex() int { return in.phaseIdx }

// InstsToPhaseBoundary returns how many more dispatched instructions fit in
// the current phase before the next boundary (always >= 1). The core's
// span tier uses it to detect a phase crossing inline.
func (in *Instance) InstsToPhaseBoundary() uint64 {
	return in.Model.Phases[in.phaseIdx].Insts - in.intoPhase
}

// AdvanceDispatched records n dispatched instructions and returns true if
// the application crossed into a different phase.
func (in *Instance) AdvanceDispatched(n uint64) bool {
	in.Dispatched += n
	in.intoPhase += n
	changed := false
	for in.intoPhase >= in.Model.Phases[in.phaseIdx].Insts {
		in.intoPhase -= in.Model.Phases[in.phaseIdx].Insts
		in.phaseIdx = (in.phaseIdx + 1) % len(in.Model.Phases)
		changed = true
	}
	return changed
}

// Relaunch restarts the program image: the phase position rewinds to the
// beginning while the cumulative Retired count keeps growing, mirroring the
// constant-pressure methodology of §V-B.
func (in *Instance) Relaunch() {
	in.phaseIdx = 0
	in.intoPhase = 0
	in.Launches++
}

// --- catalogue ------------------------------------------------------------

// phase is a shorthand constructor used by the catalogue.
func phase(insts uint64, p Profile) Phase { return Phase{Insts: insts, Profile: p} }

// Typical latency levels used by the catalogue (cycles). They loosely follow
// the ThunderX2 memory hierarchy of paper Table II.
const (
	latL2  = 14
	latLLC = 42
	latMem = 210
)

// catalogue returns the 28 paper applications. Phase lengths are expressed
// in instructions and sized so that phase transitions happen every handful
// of quanta at the default quantum length, giving the runtime variability
// that Figs. 6-7 and Table V rely on.
func catalogue() []*Model {
	k := uint64(1000)
	M := 1000 * k
	return []*Model{
		// ---- Backend bound (Table III: backend stalls > 65 %) ----
		{Name: "cactuBSSN_r", Group: GroupBackend, Phases: []Phase{
			phase(2*M, Profile{ILP: 2.0, ICacheMPKI: 0.6, ICacheStall: 20, BranchMPKI: 1.0, BranchStall: 14, MemMPKI: 7, MemLat: 200, LoadRatio: 0.30, StoreRatio: 0.12, DepFrac: 0.30, IFootprint: 0.10, DFootprint: 0.65, MemBW: 0.55}),
			phase(1*M, Profile{ILP: 2.2, ICacheMPKI: 0.5, ICacheStall: 20, BranchMPKI: 1.0, BranchStall: 14, MemMPKI: 9, MemLat: 205, LoadRatio: 0.32, StoreRatio: 0.12, DepFrac: 0.32, IFootprint: 0.10, DFootprint: 0.70, MemBW: 0.60}),
		}},
		{Name: "lbm_r", Group: GroupBackend, Phases: []Phase{
			phase(3*M, Profile{ILP: 2.2, ICacheMPKI: 0.4, ICacheStall: 18, BranchMPKI: 0.8, BranchStall: 14, MemMPKI: 10, MemLat: 225, LoadRatio: 0.28, StoreRatio: 0.20, DepFrac: 0.20, IFootprint: 0.05, DFootprint: 0.80, MemBW: 0.85}),
		}},
		{Name: "mcf", Group: GroupBackend, Phases: []Phase{
			phase(1500*k, Profile{ILP: 1.6, ICacheMPKI: 1.0, ICacheStall: 20, BranchMPKI: 3.0, BranchStall: 14, MemMPKI: 14, MemLat: 235, LoadRatio: 0.34, StoreRatio: 0.10, DepFrac: 0.60, IFootprint: 0.12, DFootprint: 0.75, MemBW: 0.70}),
			phase(800*k, Profile{ILP: 1.5, ICacheMPKI: 1.2, ICacheStall: 20, BranchMPKI: 4.0, BranchStall: 14, MemMPKI: 11, MemLat: 220, LoadRatio: 0.33, StoreRatio: 0.10, DepFrac: 0.55, IFootprint: 0.12, DFootprint: 0.70, MemBW: 0.60}),
		}},
		{Name: "milc", Group: GroupBackend, Phases: []Phase{
			phase(2500*k, Profile{ILP: 1.8, ICacheMPKI: 0.7, ICacheStall: 19, BranchMPKI: 1.2, BranchStall: 14, MemMPKI: 9, MemLat: 215, LoadRatio: 0.31, StoreRatio: 0.14, DepFrac: 0.35, IFootprint: 0.08, DFootprint: 0.72, MemBW: 0.72}),
		}},
		{Name: "xalancbmk_r", Group: GroupBackend, Phases: []Phase{
			phase(1800*k, Profile{ILP: 1.7, ICacheMPKI: 4.0, ICacheStall: 22, BranchMPKI: 4.0, BranchStall: 14, MemMPKI: 8, MemLat: 190, LoadRatio: 0.33, StoreRatio: 0.12, DepFrac: 0.50, IFootprint: 0.35, DFootprint: 0.60, MemBW: 0.45}),
			phase(900*k, Profile{ILP: 1.8, ICacheMPKI: 3.0, ICacheStall: 22, BranchMPKI: 3.5, BranchStall: 14, MemMPKI: 10, MemLat: 200, LoadRatio: 0.34, StoreRatio: 0.12, DepFrac: 0.52, IFootprint: 0.30, DFootprint: 0.62, MemBW: 0.50}),
		}},
		{Name: "wrf_r", Group: GroupBackend, Phases: []Phase{
			phase(2200*k, Profile{ILP: 2.3, ICacheMPKI: 0.8, ICacheStall: 20, BranchMPKI: 1.5, BranchStall: 14, MemMPKI: 8, MemLat: 195, LoadRatio: 0.30, StoreRatio: 0.15, DepFrac: 0.30, IFootprint: 0.12, DFootprint: 0.68, MemBW: 0.62}),
		}},

		// ---- Frontend bound (Table III: frontend stalls > 35 %) ----
		{Name: "astar", Group: GroupFrontend, Phases: []Phase{
			phase(1600*k, Profile{ILP: 1.9, ICacheMPKI: 12, ICacheStall: 24, BranchMPKI: 7, BranchStall: 14, MemMPKI: 2.0, MemLat: 130, LoadRatio: 0.28, StoreRatio: 0.08, DepFrac: 0.40, IFootprint: 0.60, DFootprint: 0.35, MemBW: 0.20}),
			phase(900*k, Profile{ILP: 1.8, ICacheMPKI: 10, ICacheStall: 24, BranchMPKI: 8, BranchStall: 14, MemMPKI: 3.0, MemLat: 150, LoadRatio: 0.30, StoreRatio: 0.08, DepFrac: 0.45, IFootprint: 0.55, DFootprint: 0.40, MemBW: 0.25}),
		}},
		{Name: "gobmk", Group: GroupFrontend, Phases: []Phase{
			phase(2*M, Profile{ILP: 2.0, ICacheMPKI: 14, ICacheStall: 25, BranchMPKI: 9, BranchStall: 14, MemMPKI: 0.8, MemLat: 110, LoadRatio: 0.26, StoreRatio: 0.10, DepFrac: 0.35, IFootprint: 0.70, DFootprint: 0.25, MemBW: 0.10}),
		}},
		{Name: "leela_r", Group: GroupFrontend, Phases: []Phase{
			// Frontend-dominated search phase.
			phase(1300*k, Profile{ILP: 2.1, ICacheMPKI: 16, ICacheStall: 26, BranchMPKI: 9, BranchStall: 14, MemMPKI: 0.5, MemLat: 140, LoadRatio: 0.25, StoreRatio: 0.08, DepFrac: 0.35, IFootprint: 0.72, DFootprint: 0.25, MemBW: 0.08}),
			// Backend-leaning evaluation phase (drives Table V / Fig. 7).
			phase(700*k, Profile{ILP: 1.8, ICacheMPKI: 4, ICacheStall: 22, BranchMPKI: 3, BranchStall: 14, MemMPKI: 8, MemLat: 205, LoadRatio: 0.30, StoreRatio: 0.10, DepFrac: 0.50, IFootprint: 0.30, DFootprint: 0.70, MemBW: 0.55}),
		}},
		{Name: "mcf_r", Group: GroupFrontend, Phases: []Phase{
			phase(1400*k, Profile{ILP: 1.8, ICacheMPKI: 14, ICacheStall: 25, BranchMPKI: 9, BranchStall: 14, MemMPKI: 1.5, MemLat: 160, LoadRatio: 0.30, StoreRatio: 0.09, DepFrac: 0.45, IFootprint: 0.62, DFootprint: 0.35, MemBW: 0.20}),
			phase(700*k, Profile{ILP: 1.7, ICacheMPKI: 6, ICacheStall: 23, BranchMPKI: 5, BranchStall: 14, MemMPKI: 7, MemLat: 195, LoadRatio: 0.32, StoreRatio: 0.10, DepFrac: 0.52, IFootprint: 0.40, DFootprint: 0.65, MemBW: 0.45}),
		}},
		{Name: "perlbench", Group: GroupFrontend, Phases: []Phase{
			phase(2100*k, Profile{ILP: 2.4, ICacheMPKI: 13, ICacheStall: 24, BranchMPKI: 10, BranchStall: 14, MemMPKI: 1.0, MemLat: 120, LoadRatio: 0.27, StoreRatio: 0.12, DepFrac: 0.35, IFootprint: 0.68, DFootprint: 0.30, MemBW: 0.12}),
		}},

		// ---- Others ----
		{Name: "blender_r", Group: GroupOther, Phases: []Phase{
			phase(1900*k, Profile{ILP: 2.6, ICacheMPKI: 4, ICacheStall: 22, BranchMPKI: 4, BranchStall: 14, MemMPKI: 3.0, MemLat: 150, LoadRatio: 0.28, StoreRatio: 0.12, DepFrac: 0.35, IFootprint: 0.35, DFootprint: 0.45, MemBW: 0.30}),
		}},
		{Name: "bwaves", Group: GroupOther, Phases: []Phase{
			phase(2300*k, Profile{ILP: 2.7, ICacheMPKI: 0.6, ICacheStall: 18, BranchMPKI: 1.0, BranchStall: 14, MemMPKI: 3.4, MemLat: 150, LoadRatio: 0.30, StoreRatio: 0.14, DepFrac: 0.22, IFootprint: 0.06, DFootprint: 0.60, MemBW: 0.55}),
		}},
		{Name: "bzip2", Group: GroupOther, Phases: []Phase{
			phase(1500*k, Profile{ILP: 2.3, ICacheMPKI: 3, ICacheStall: 21, BranchMPKI: 6, BranchStall: 14, MemMPKI: 3.0, MemLat: 140, LoadRatio: 0.29, StoreRatio: 0.12, DepFrac: 0.40, IFootprint: 0.25, DFootprint: 0.45, MemBW: 0.25}),
			phase(800*k, Profile{ILP: 2.1, ICacheMPKI: 2, ICacheStall: 21, BranchMPKI: 5, BranchStall: 14, MemMPKI: 4.5, MemLat: 155, LoadRatio: 0.30, StoreRatio: 0.13, DepFrac: 0.42, IFootprint: 0.22, DFootprint: 0.50, MemBW: 0.30}),
		}},
		{Name: "calculix", Group: GroupOther, Phases: []Phase{
			phase(2*M, Profile{ILP: 2.9, ICacheMPKI: 1.2, ICacheStall: 20, BranchMPKI: 2, BranchStall: 14, MemMPKI: 2.2, MemLat: 140, LoadRatio: 0.28, StoreRatio: 0.12, DepFrac: 0.28, IFootprint: 0.12, DFootprint: 0.42, MemBW: 0.25}),
		}},
		{Name: "cam4_r", Group: GroupOther, Phases: []Phase{
			phase(1700*k, Profile{ILP: 2.4, ICacheMPKI: 5, ICacheStall: 22, BranchMPKI: 3.5, BranchStall: 14, MemMPKI: 3.0, MemLat: 150, LoadRatio: 0.29, StoreRatio: 0.12, DepFrac: 0.32, IFootprint: 0.40, DFootprint: 0.48, MemBW: 0.32}),
			phase(900*k, Profile{ILP: 2.2, ICacheMPKI: 6, ICacheStall: 22, BranchMPKI: 4.0, BranchStall: 14, MemMPKI: 3.8, MemLat: 160, LoadRatio: 0.30, StoreRatio: 0.12, DepFrac: 0.34, IFootprint: 0.44, DFootprint: 0.50, MemBW: 0.35}),
		}},
		{Name: "deepsjeng_r", Group: GroupOther, Phases: []Phase{
			phase(1800*k, Profile{ILP: 2.5, ICacheMPKI: 6, ICacheStall: 22, BranchMPKI: 6, BranchStall: 14, MemMPKI: 1.8, MemLat: 130, LoadRatio: 0.27, StoreRatio: 0.10, DepFrac: 0.36, IFootprint: 0.45, DFootprint: 0.35, MemBW: 0.15}),
		}},
		{Name: "exchange2_r", Group: GroupOther, Phases: []Phase{
			phase(2400*k, Profile{ILP: 3.2, ICacheMPKI: 1.5, ICacheStall: 20, BranchMPKI: 3.5, BranchStall: 14, MemMPKI: 0.4, MemLat: 90, LoadRatio: 0.22, StoreRatio: 0.08, DepFrac: 0.25, IFootprint: 0.18, DFootprint: 0.15, MemBW: 0.05}),
		}},
		{Name: "fotonik3d_r", Group: GroupOther, Phases: []Phase{
			phase(2100*k, Profile{ILP: 2.5, ICacheMPKI: 0.8, ICacheStall: 19, BranchMPKI: 1.2, BranchStall: 14, MemMPKI: 3.0, MemLat: 145, LoadRatio: 0.31, StoreRatio: 0.13, DepFrac: 0.26, IFootprint: 0.08, DFootprint: 0.62, MemBW: 0.58}),
		}},
		{Name: "hmmer", Group: GroupOther, Phases: []Phase{
			phase(1900*k, Profile{ILP: 2.2, ICacheMPKI: 8, ICacheStall: 24, BranchMPKI: 7, BranchStall: 14, MemMPKI: 5.0, MemLat: 160, LoadRatio: 0.30, StoreRatio: 0.11, DepFrac: 0.38, IFootprint: 0.42, DFootprint: 0.50, MemBW: 0.35}),
		}},
		{Name: "imagick_r", Group: GroupOther, Phases: []Phase{
			phase(2*M, Profile{ILP: 3.0, ICacheMPKI: 1.0, ICacheStall: 20, BranchMPKI: 2.0, BranchStall: 14, MemMPKI: 1.8, MemLat: 130, LoadRatio: 0.27, StoreRatio: 0.11, DepFrac: 0.28, IFootprint: 0.10, DFootprint: 0.38, MemBW: 0.20}),
		}},
		{Name: "nab_r", Group: GroupOther, Phases: []Phase{
			phase(2600*k, Profile{ILP: 3.6, ICacheMPKI: 1.0, ICacheStall: 18, BranchMPKI: 1.5, BranchStall: 14, MemMPKI: 1.2, MemLat: 120, LoadRatio: 0.26, StoreRatio: 0.10, DepFrac: 0.24, IFootprint: 0.10, DFootprint: 0.30, MemBW: 0.15}),
		}},
		{Name: "namd_r", Group: GroupOther, Phases: []Phase{
			phase(2200*k, Profile{ILP: 3.1, ICacheMPKI: 0.8, ICacheStall: 19, BranchMPKI: 1.5, BranchStall: 14, MemMPKI: 1.5, MemLat: 125, LoadRatio: 0.27, StoreRatio: 0.10, DepFrac: 0.26, IFootprint: 0.09, DFootprint: 0.35, MemBW: 0.18}),
		}},
		{Name: "omnetpp_r", Group: GroupOther, Phases: []Phase{
			phase(1600*k, Profile{ILP: 1.9, ICacheMPKI: 7, ICacheStall: 23, BranchMPKI: 5, BranchStall: 14, MemMPKI: 5.0, MemLat: 175, LoadRatio: 0.31, StoreRatio: 0.11, DepFrac: 0.48, IFootprint: 0.45, DFootprint: 0.55, MemBW: 0.40}),
		}},
		{Name: "parest_r", Group: GroupOther, Phases: []Phase{
			phase(1900*k, Profile{ILP: 2.4, ICacheMPKI: 2.5, ICacheStall: 21, BranchMPKI: 2.5, BranchStall: 14, MemMPKI: 3.5, MemLat: 155, LoadRatio: 0.30, StoreRatio: 0.12, DepFrac: 0.34, IFootprint: 0.20, DFootprint: 0.52, MemBW: 0.35}),
		}},
		{Name: "povray_r", Group: GroupOther, Phases: []Phase{
			phase(2100*k, Profile{ILP: 2.8, ICacheMPKI: 4.5, ICacheStall: 22, BranchMPKI: 5, BranchStall: 14, MemMPKI: 0.6, MemLat: 100, LoadRatio: 0.25, StoreRatio: 0.10, DepFrac: 0.28, IFootprint: 0.38, DFootprint: 0.25, MemBW: 0.08}),
		}},
		{Name: "roms_r", Group: GroupOther, Phases: []Phase{
			phase(2*M, Profile{ILP: 2.6, ICacheMPKI: 0.7, ICacheStall: 19, BranchMPKI: 1.2, BranchStall: 14, MemMPKI: 3.2, MemLat: 150, LoadRatio: 0.30, StoreRatio: 0.13, DepFrac: 0.25, IFootprint: 0.07, DFootprint: 0.58, MemBW: 0.50}),
		}},
		{Name: "tonto", Group: GroupOther, Phases: []Phase{
			phase(1800*k, Profile{ILP: 2.7, ICacheMPKI: 3.5, ICacheStall: 21, BranchMPKI: 3, BranchStall: 14, MemMPKI: 2.0, MemLat: 135, LoadRatio: 0.28, StoreRatio: 0.11, DepFrac: 0.30, IFootprint: 0.30, DFootprint: 0.40, MemBW: 0.22}),
		}},
	}
}

var catalog = catalogue()

// Catalog returns the 28 application models in the paper's Table III order
// (backend bound, then frontend bound, then others). The returned slice and
// models are shared; callers must not mutate them.
func Catalog() []*Model { return catalog }

// ByName returns the model with the given paper name, or an error.
func ByName(name string) (*Model, error) {
	for _, m := range catalog {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("apps: unknown application %q", name)
}

// Names returns all application names, sorted alphabetically.
func Names() []string {
	out := make([]string, len(catalog))
	for i, m := range catalog {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// ByGroup returns all models in group g, in catalogue order.
func ByGroup(g Group) []*Model {
	var out []*Model
	for _, m := range catalog {
		if m.Group == g {
			out = append(out, m)
		}
	}
	return out
}

// reservedForEvaluation lists the six applications excluded from model
// training. The paper trains on 80 % of the applications (22 of 28, §IV-C)
// and keeps the rest to evaluate the model on unseen behaviour; the exact
// identity of the held-out set is not published, so this choice spans all
// three groups.
var reservedForEvaluation = map[string]bool{
	"xalancbmk_r": true,
	"wrf_r":       true,
	"astar":       true,
	"blender_r":   true,
	"roms_r":      true,
	"tonto":       true,
}

// TrainingSet returns the 22 applications used to fit the regression model.
func TrainingSet() []*Model {
	var out []*Model
	for _, m := range catalog {
		if !reservedForEvaluation[m.Name] {
			out = append(out, m)
		}
	}
	return out
}

// EvaluationOnly returns the applications held out of training.
func EvaluationOnly() []*Model {
	var out []*Model
	for _, m := range catalog {
		if reservedForEvaluation[m.Name] {
			out = append(out, m)
		}
	}
	return out
}
