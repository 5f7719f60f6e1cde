// Package smtcore simulates one SMT core of the Cavium ThunderX2 (Vulcan
// microarchitecture, paper Table II) at cycle granularity, focused on the
// dispatch stage — the pipeline point where the paper measures performance
// (§III). The SMT level is configurable: the hardware supports SMT4, and
// the paper's BIOS configuration of SMT2 (§V-A) is the default.
//
// The resident hardware threads share:
//
//   - the 4-wide dispatch stage (cycle-alternating priority, so a thread can
//     receive zero slots in a busy cycle — horizontal waste);
//   - the 128-entry reorder buffer, 60-entry issue queue and 64/36-entry
//     load/store queues (a memory-stalled thread keeps its in-flight
//     instructions resident, squeezing the co-runner);
//   - the cache hierarchy and memory bandwidth (footprint-driven inflation
//     of miss rates and latencies).
//
// Inter-thread interference is therefore *emergent*: backend-bound pairs
// collide on ROB/IQ occupancy and memory bandwidth, frontend-bound pairs on
// the instruction cache, while complementary pairs barely touch — the
// physical phenomenon SYNPA's scheduler exploits. The PMU counters are
// updated with exact ARM semantics: STALL_FRONTEND / STALL_BACKEND tick only
// on zero-dispatch cycles, so partially filled cycles are invisible to them
// (the "revealed stalls" of paper §III-B Step 2).
package smtcore

import (
	"fmt"
	"math"

	"synpa/internal/apps"
	"synpa/internal/pmu"
)

// Config collects the core's microarchitectural and contention parameters.
type Config struct {
	// SMTLevel is the number of hardware threads the core exposes — the
	// BIOS SMT configuration of paper §V-A. The ThunderX2 hardware
	// supports up to SMT4; the paper runs it as SMT2, which is the
	// default a zero value selects.
	SMTLevel int

	DispatchWidth int // dispatch slots per cycle (Table II: 4)
	RetireWidth   int // commit slots per cycle
	ROBSize       int // shared reorder buffer entries (Table II: 128)
	IQSize        int // shared issue queue entries (Table II: 60)
	LDQSize       int // shared load queue entries (Table II: 64)
	STQSize       int // shared store queue entries (Table II: 36)

	// ICacheContention inflates a thread's instruction-cache miss rate by
	// (1 + ICacheContention · coRunnerIFootprint).
	ICacheContention float64
	// DCacheContention inflates a thread's long-latency-load rate by
	// (1 + DCacheContention · coRunnerDFootprint): shared-cache thrashing
	// turns hits into misses.
	DCacheContention float64
	// DCacheThrashMPKI adds misses a co-runner's cache footprint inflicts
	// on a thread regardless of its base miss rate:
	// ΔMPKI = DCacheThrashMPKI · coRunnerDFootprint · ownDFootprint.
	// This is the eviction mechanism that lets a streaming co-runner turn
	// a cache-friendly thread memory-bound — the phenomenon behind the
	// paper's fb2 analysis, where a frontend-categorized leela_r becomes
	// backend-limited under Linux's static pairing (§VI-C).
	DCacheThrashMPKI float64
	// MemBWContention inflates memory latency by
	// (1 + MemBWContention · coRunnerMemBW): bandwidth queuing delay.
	MemBWContention float64

	// SMTPartitionFrac caps the fraction of each shared queue (ROB, IQ,
	// LDQ, STQ) that a single hardware thread may occupy while the core
	// runs two threads. Real SMT cores impose such caps to stop one
	// stalled thread from starving its co-runner outright; a thread
	// running alone gets the whole structure. Must be in (0.5, 1].
	//
	// Above two resident threads the cap generalises: each co-runner
	// keeps a guaranteed (1 − SMTPartitionFrac) share, floored at an even
	// split, so the per-thread cap with k active threads is
	// max(1 − (k−1)·(1 − SMTPartitionFrac), 1/k). With k = 2 this is
	// SMTPartitionFrac itself (see refreshCaps).
	SMTPartitionFrac float64
}

// DefaultConfig returns the ThunderX2 CN9975 parameters of paper Table II
// with calibrated contention coefficients.
func DefaultConfig() Config {
	return Config{
		DispatchWidth:    4,
		RetireWidth:      4,
		ROBSize:          128,
		IQSize:           60,
		LDQSize:          64,
		STQSize:          36,
		ICacheContention: 1.2,
		DCacheContention: 0.5,
		DCacheThrashMPKI: 10.0,
		MemBWContention:  0.45,
		SMTPartitionFrac: 0.75,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.DispatchWidth < 1 || c.RetireWidth < 1 {
		return fmt.Errorf("smtcore: dispatch/retire width must be >= 1")
	}
	if c.ROBSize < c.DispatchWidth || c.IQSize < 1 || c.LDQSize < 1 || c.STQSize < 1 {
		return fmt.Errorf("smtcore: queue sizes too small")
	}
	if c.ICacheContention < 0 || c.DCacheContention < 0 || c.MemBWContention < 0 ||
		c.DCacheThrashMPKI < 0 {
		return fmt.Errorf("smtcore: contention coefficients must be >= 0")
	}
	if c.SMTPartitionFrac <= 0.5 || c.SMTPartitionFrac > 1 {
		return fmt.Errorf("smtcore: SMTPartitionFrac %v outside (0.5, 1]", c.SMTPartitionFrac)
	}
	if lvl := c.Level(); lvl < 1 || lvl > MaxSMTLevel {
		return fmt.Errorf("smtcore: SMT level %d outside [1, %d]", lvl, MaxSMTLevel)
	}
	return nil
}

// SMT levels. The paper configures the ThunderX2 as SMT2 in the BIOS (§V-A)
// even though the hardware supports SMT4; DefaultSMTLevel mirrors that BIOS
// default and MaxSMTLevel the hardware ceiling.
const (
	DefaultSMTLevel = 2
	MaxSMTLevel     = 4
)

// Level returns the configured SMT level, substituting the paper's SMT2
// default for a zero value so pre-existing Config literals keep working.
func (c Config) Level() int {
	if c.SMTLevel == 0 {
		return DefaultSMTLevel
	}
	return c.SMTLevel
}

// stall-event kinds drawn by the application models.
const (
	evICache = iota
	evBranch
	evMem
)

// thread is one hardware thread context.
type thread struct {
	inst *apps.Instance
	bank *pmu.Bank

	// Effective event parameters after contention inflation, refreshed on
	// bind and on any phase change of either thread.
	pICache, pBranch, pMem float64 // cumulative per-instruction thresholds
	pEvent                 float64 // total event probability per instruction
	logNoEvent             float64 // cached ln(1-pEvent) for window draws
	durICache, durBranch   float64
	durMem                 float64
	invDepFrac             float64
	invLoadRatio           float64
	invStoreRatio          float64
	loadRatio, storeRatio  float64
	depFrac                float64

	// ILP dithering.
	ilpBase int
	ilpFrac float64
	ilpAcc  float64

	// wrongPathMean is the mean number of wrong-path µops squashed per
	// branch misprediction (≈ ILP · pipeline depth to resolution).
	wrongPathMean float64

	// Microstate.
	window   int // instructions until the next stall event
	feLeft   int // remaining frontend-starved cycles
	feKind   int // evICache or evBranch
	missLeft int // remaining cycles of the blocking load

	robHeld int     // un-retired instructions in the ROB
	iqHeld  float64 // issue-queue entries held by miss-dependent µops
	ldqHeld float64 // load-queue entries held
	stqHeld float64 // store-queue entries held
}

// Core simulates one SMT core at the configured SMT level.
type Core struct {
	cfg     Config
	id      int
	cycle   uint64
	prio    int      // which thread dispatches/retires first this cycle
	ff      bool     // event-driven fast-forward engine enabled
	threads []thread // one context per hardware thread (Config.SMTLevel)

	// Per-thread occupancy caps, refreshed on Bind: the full structure in
	// ST mode, SMTPartitionFrac of it when both threads are active.
	robCap int
	iqCap  float64
	ldqCap float64
	stqCap float64

	// ldqDead/stqDead record that, for the currently bound applications,
	// the load/store-queue clamps can never bind: occupancy is bounded by
	// ratio · ROB occupancy (every LDQ/STQ increment and decrement pairs
	// with a ROB one at the same ratio, and clamping only drifts the
	// float bookkeeping downward), so when ratio · ROBSize leaves a safe
	// margin below the queue size — and ratio · robCap below the
	// partition cap — the clamp outcome is statically known. The fast
	// tiers then skip the queues' float bookkeeping entirely: the values
	// become observationally invisible, and the dormancy predicates skip
	// the corresponding conditions rather than read stale state. The
	// reference step() is not affected. Refreshed on Bind.
	ldqDead bool
	stqDead bool

	// forceLiveQueues disables the dead-clamp analysis; set by the
	// differential test so the reference core maintains (and evaluates)
	// the full queue bookkeeping that the analysis would elide, proving
	// the elision observationally neutral.
	forceLiveQueues bool

	// engine counts where this core's simulated cycles were spent across
	// the three execution tiers. Updated once per tier segment (never per
	// cycle), purely as a function of simulated progress, so it is as
	// deterministic as the cycle count itself.
	engine EngineStats
}

// EngineStats splits a core's simulated cycles across the execution tiers:
// exact reference steps, the span engine, and bulk fast-forward skips. The
// three sum to the cycles the core has run; with the fast-forward engine
// enabled every cycle is a span or a fast-forward cycle.
type EngineStats struct {
	// StepCycles were simulated by the per-cycle reference step (the
	// engine disabled).
	StepCycles uint64
	// SpanCycles were simulated by the tier-2 inline-event span engine.
	SpanCycles uint64
	// FFCycles were bulk-skipped by the tier-1 dormancy fast-forward.
	FFCycles uint64
}

// EngineStats returns the core's cumulative tier split.
func (c *Core) EngineStats() EngineStats { return c.engine }

// New creates a core with the given configuration. It panics on an invalid
// configuration, which is a programming error.
func New(id int, cfg Config) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.SMTLevel = cfg.Level()
	return &Core{cfg: cfg, id: id, threads: make([]thread, cfg.SMTLevel)}
}

// ID returns the core's identifier.
func (c *Core) ID() int { return c.id }

// Level returns the core's SMT level: the number of hardware thread slots.
func (c *Core) Level() int { return len(c.threads) }

// Cycle returns the core's current cycle count.
func (c *Core) Cycle() uint64 { return c.cycle }

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// SetFastForward toggles the event-driven fast-forward engine (see DESIGN.md
// in this package). The engine is observationally equivalent to the
// per-cycle reference loop — identical PMU counters, retired-instruction
// counts and phase transitions — so the toggle only changes wall-clock
// speed. It defaults to off on a bare Core; the machine layer enables it
// from machine.Config.FastForward.
//
// Set the toggle before running cycles: the engine elides bookkeeping it
// has proven unobservable (DESIGN.md, dead-clamp elision), so disabling it
// mid-run leaves that state stale until the next Bind of the affected
// slots.
func (c *Core) SetFastForward(on bool) {
	c.ff = on
	// The dead-clamp analysis is gated on the engine; recompute in case
	// applications were bound before the toggle.
	c.refreshCaps()
}

// FastForward reports whether the fast-forward engine is enabled.
func (c *Core) FastForward() bool { return c.ff }

// Instance returns the application bound to hardware thread slot, or nil.
func (c *Core) Instance(slot int) *apps.Instance { return c.threads[slot].inst }

// Bind attaches an application instance and its counter bank to hardware
// thread slot (0 .. Level()-1). Passing a nil instance idles the slot.
// Binding flushes the thread's pipeline microstate — the architectural cost
// of a context switch, negligible at quantum scale — and refreshes every
// resident thread's contention-adjusted event rates.
func (c *Core) Bind(slot int, inst *apps.Instance, bank *pmu.Bank) {
	if slot < 0 || slot >= len(c.threads) {
		panic(fmt.Sprintf("smtcore: bad thread slot %d", slot))
	}
	t := &c.threads[slot]
	t.inst = inst
	t.bank = bank
	t.feLeft = 0
	t.missLeft = 0
	t.robHeld = 0
	t.iqHeld = 0
	t.ldqHeld = 0
	t.stqHeld = 0
	t.ilpAcc = 0
	t.window = 0
	c.refreshRates()
	c.refreshCaps()
	// Draw the first event window for the fresh binding.
	if inst != nil {
		t.drawWindow()
	}
}

// refreshRates recomputes every resident thread's contention-adjusted event
// parameters from the current phases. Called on bind and on phase change of
// any thread (a co-runner's phase shift changes *my* interference).
func (c *Core) refreshRates() {
	for s := range c.threads {
		t := &c.threads[s]
		if t.inst == nil {
			continue
		}
		p := t.inst.Profile()
		// Every interference term is linear in the co-runner pressure, so
		// multiple co-runners aggregate by summing their footprints; with a
		// single co-runner this reduces to the pairwise SMT2 form exactly.
		var coI, coD, coBW float64
		hasCo := false
		for o := range c.threads {
			if o == s || c.threads[o].inst == nil {
				continue
			}
			co := c.threads[o].inst.Profile()
			coI += co.IFootprint
			coD += co.DFootprint
			coBW += co.MemBW
			hasCo = true
		}

		icRate := p.ICacheMPKI / 1000
		memRate := p.MemMPKI / 1000
		memLat := p.MemLat
		if hasCo {
			icRate *= 1 + c.cfg.ICacheContention*coI
			memRate *= 1 + c.cfg.DCacheContention*coD
			memRate += c.cfg.DCacheThrashMPKI / 1000 * coD * p.DFootprint
			memLat *= 1 + c.cfg.MemBWContention*coBW
		}
		brRate := p.BranchMPKI / 1000

		t.pICache = icRate
		t.pBranch = icRate + brRate
		t.pMem = icRate + brRate + memRate
		t.pEvent = t.pMem
		// Window draws divide by ln(1-pEvent); the rate only changes here,
		// so the logarithm is hoisted out of the per-event draw
		// (GeometricFromLog is bit-identical to Geometric by construction).
		t.logNoEvent = math.Log1p(-t.pEvent)
		t.durICache = p.ICacheStall
		t.durBranch = p.BranchStall
		t.durMem = memLat

		t.depFrac = p.DepFrac
		t.loadRatio = p.LoadRatio
		t.storeRatio = p.StoreRatio
		t.invDepFrac = safeInv(p.DepFrac)
		t.invLoadRatio = safeInv(p.LoadRatio)
		t.invStoreRatio = safeInv(p.StoreRatio)

		t.ilpBase = int(p.ILP)
		t.ilpFrac = p.ILP - float64(t.ilpBase)

		// Wrong-path depth: the µops dispatched during the cycles it
		// takes to resolve the mispredicted branch.
		t.wrongPathMean = p.ILP * wrongPathResolveCycles
	}
}

// wrongPathResolveCycles approximates the dispatch-to-resolve depth of a
// mispredicted branch; multiplied by the thread's ILP it gives the mean
// number of squashed wrong-path µops per misprediction.
const wrongPathResolveCycles = 8.0

// refreshCaps recomputes the per-thread occupancy caps for the current SMT
// occupancy (the number of active threads).
func (c *Core) refreshCaps() {
	active := 0
	for s := range c.threads {
		if c.threads[s].inst != nil {
			active++
		}
	}
	frac := 1.0
	switch {
	case active <= 1:
		// A lone thread owns the whole structure.
	case active == 2:
		frac = c.cfg.SMTPartitionFrac
	default:
		// Each of the active−1 co-runners keeps its guaranteed
		// (1 − SMTPartitionFrac) share, floored at an even split so the
		// cap never drops below what round-robin arbitration would give.
		frac = 1 - float64(active-1)*(1-c.cfg.SMTPartitionFrac)
		if even := 1 / float64(active); frac < even {
			frac = even
		}
	}
	c.robCap = int(frac * float64(c.cfg.ROBSize))
	c.iqCap = frac * float64(c.cfg.IQSize)
	c.ldqCap = frac * float64(c.cfg.LDQSize)
	c.stqCap = frac * float64(c.cfg.STQSize)

	// Dead-clamp analysis for the fast tiers (see the field comment). The
	// occupancy bound ldqHeld <= ratio·robHeld holds only when a model's
	// ratio is identical across its phases: releases (retire, squash) use
	// the *current* phase's ratio while the held entries were added at
	// their dispatch-time ratio, so differing per-phase ratios let a
	// residue ratchet up across fill/drain alternations without bound.
	// With phase-constant ratios the pairing is exact (clamping and the
	// robHeld==0 reset only drift the bookkeeping downward), and the
	// margin covers one dispatch group per clamp use plus rounding.
	maxL, maxS := 0.0, 0.0
	constL, constS := true, true
	for s := range c.threads {
		inst := c.threads[s].inst
		if inst == nil {
			continue
		}
		phases := inst.Model.Phases
		for _, ph := range phases {
			if ph.Profile.LoadRatio != phases[0].Profile.LoadRatio {
				constL = false
			}
			if ph.Profile.StoreRatio != phases[0].Profile.StoreRatio {
				constS = false
			}
			if ph.Profile.LoadRatio > maxL {
				maxL = ph.Profile.LoadRatio
			}
			if ph.Profile.StoreRatio > maxS {
				maxS = ph.Profile.StoreRatio
			}
		}
	}
	// The elision is part of the fast-forward engine: with it disabled the
	// core is the unmodified per-cycle reference.
	margin := float64(c.cfg.DispatchWidth)
	c.ldqDead = c.ff && !c.forceLiveQueues && constL &&
		float64(c.cfg.LDQSize)-maxL*float64(c.cfg.ROBSize) >= maxL*margin+2 &&
		c.ldqCap-maxL*float64(c.robCap) >= maxL*margin+2
	c.stqDead = c.ff && !c.forceLiveQueues && constS &&
		float64(c.cfg.STQSize)-maxS*float64(c.cfg.ROBSize) >= maxS*margin+2 &&
		c.stqCap-maxS*float64(c.robCap) >= maxS*margin+2
}

func safeInv(x float64) float64 {
	if x <= 0 {
		return math.Inf(1)
	}
	return 1 / x
}

// drawWindow draws the number of instructions until the thread's next stall
// event from its (contention-adjusted) combined event rate.
func (t *thread) drawWindow() {
	if t.pEvent <= 0 {
		t.window = 1 << 30
		return
	}
	t.window = t.inst.RNG().GeometricFromLog(t.pEvent, t.logNoEvent)
}

// fireEvent triggers the stall event that ends the current window and draws
// the next window.
func (t *thread) fireEvent() {
	rng := t.inst.RNG()
	u := rng.Float64() * t.pEvent
	switch {
	case u < t.pICache:
		d := int(rng.Exp(t.durICache)) + 1
		t.feLeft += d
		t.feKind = evICache
	case u < t.pBranch:
		d := int(rng.Exp(t.durBranch)) + 1
		t.feLeft += d
		t.feKind = evBranch
		// The squash discards the wrong-path µops dispatched behind the
		// mispredicted branch. They were counted by INST_SPEC — the ARM
		// event deliberately includes speculative work (§III-B) — but
		// they will never retire. Flush them from the backend queues.
		if t.robHeld > 0 {
			wrong := 1 + int(rng.Exp(t.wrongPathMean))
			if wrong > t.robHeld {
				wrong = t.robHeld
			}
			t.robHeld -= wrong
			t.ldqHeld -= t.loadRatio * float64(wrong)
			if t.ldqHeld < 0 {
				t.ldqHeld = 0
			}
			t.stqHeld -= t.storeRatio * float64(wrong)
			if t.stqHeld < 0 {
				t.stqHeld = 0
			}
		}
	default:
		d := int(rng.Exp(t.durMem)) + 1
		if t.missLeft > 0 {
			// A second miss while one is outstanding: the dependent
			// fraction serialises, the rest overlaps (memory-level
			// parallelism).
			t.missLeft += int(t.depFrac * float64(d))
		} else {
			t.missLeft = d
		}
	}
	t.drawWindow()
}

// Run advances the core by the given number of cycles. With the
// fast-forward engine enabled it alternates bulk advances over statically
// predictable dormant regimes (fastforward.go) with inline-event spans
// (spanlite.go); every cycle runs in one of those two tiers. Otherwise it is
// the per-cycle reference loop.
func (c *Core) Run(cycles uint64) {
	if !c.ff {
		for n := uint64(0); n < cycles; n++ {
			c.step()
		}
		c.engine.StepCycles += cycles
		return
	}
	// Tier 1 skips a fully dormant start; the span tier runs the rest,
	// skipping later dormant windows in place.
	if rest := cycles - c.skipDormant(cycles); rest > 0 {
		c.runSpanLite(rest)
	}
}

// step simulates one cycle.
func (c *Core) step() {
	c.cycle++
	level := len(c.threads)
	first := c.prio
	if c.prio++; c.prio == level {
		c.prio = 0
	}

	// --- retire stage (shared width, rotating priority) -----------------
	retireLeft := c.cfg.RetireWidth
	for i := 0; i < level && retireLeft > 0; i++ {
		t := &c.threads[(first+i)%level]
		if t.inst == nil || t.missLeft > 0 || t.robHeld == 0 {
			continue
		}
		k := t.robHeld
		if k > retireLeft {
			k = retireLeft
		}
		retireLeft -= k
		t.robHeld -= k
		if !c.ldqDead {
			t.ldqHeld -= t.loadRatio * float64(k)
			if t.ldqHeld < 0 {
				t.ldqHeld = 0
			}
		}
		if !c.stqDead {
			t.stqHeld -= t.storeRatio * float64(k)
			if t.stqHeld < 0 {
				t.stqHeld = 0
			}
		}
		if t.robHeld == 0 {
			// Empty ROB implies empty derived queues; clamp any
			// accumulated floating-point drift.
			t.ldqHeld, t.stqHeld = 0, 0
		}
		t.bank.Add(pmu.InstRetired, uint64(k))
		t.inst.Retired += uint64(k)
	}

	// --- miss timers ----------------------------------------------------
	for i := range c.threads {
		t := &c.threads[i]
		if t.inst != nil && t.missLeft > 0 {
			t.missLeft--
			if t.missLeft == 0 {
				// Data returned: dependants issue, IQ drains.
				t.iqHeld = 0
			}
		}
	}

	// --- dispatch stage (shared slots, rotating priority) ---------------
	slots := c.cfg.DispatchWidth
	robUsed := 0
	for i := range c.threads {
		robUsed += c.threads[i].robHeld
	}
	phaseChanged := false

	for i := 0; i < level; i++ {
		t := &c.threads[(first+i)%level]
		if t.inst == nil {
			continue
		}
		t.bank.Inc(pmu.CPUCycles)

		// Frontend starvation has priority in ARM's attribution: the
		// dispatch queue is empty, so the stall belongs to the frontend
		// regardless of backend state.
		if t.feLeft > 0 {
			t.feLeft--
			t.bank.Inc(pmu.StallFrontend)
			if t.feKind == evICache {
				t.bank.Inc(pmu.StallFEICache)
			} else {
				t.bank.Inc(pmu.StallFEBranch)
			}
			continue
		}

		// Frontend supply this cycle (ILP dithering, no RNG).
		supply := t.ilpBase
		t.ilpAcc += t.ilpFrac
		if t.ilpAcc >= 1 {
			supply++
			t.ilpAcc--
		}

		// Clamp by every shared backend resource, remembering the cause
		// of the binding constraint for fine-grained attribution.
		k := supply
		cause := pmu.StallBEOther
		if t.window < k {
			k = t.window
		}
		if slots < k {
			k = slots
			if slots == 0 {
				cause = pmu.StallBESlots
			}
		}
		if free := c.cfg.ROBSize - robUsed; free < k {
			k = free
			if free <= 0 {
				k = 0
				cause = pmu.StallBEROB
			}
		}
		if free := c.robCap - t.robHeld; free < k {
			k = free
			if free <= 0 {
				k = 0
				cause = pmu.StallBEROB
			}
		}
		iqFree := float64(c.cfg.IQSize)
		for s := range c.threads {
			iqFree -= c.threads[s].iqHeld
		}
		if own := c.iqCap - t.iqHeld; own < iqFree {
			iqFree = own
		}
		if iqFree < 1 {
			k = 0
			cause = pmu.StallBEIQ
		} else if t.missLeft > 0 && t.depFrac > 0 {
			if lim := int(iqFree * t.invDepFrac); lim < k {
				k = lim
				if lim <= 0 {
					k = 0
					cause = pmu.StallBEIQ
				}
			}
		}
		// The LDQ/STQ clamps are skipped when the dead-clamp analysis
		// (refreshCaps) proves they can never bind for the bound
		// applications; their float bookkeeping is then not maintained
		// anywhere, so evaluating them here would read stale state.
		if !c.ldqDead && t.loadRatio > 0 && k > 0 {
			ldqFree := float64(c.cfg.LDQSize)
			for s := range c.threads {
				ldqFree -= c.threads[s].ldqHeld
			}
			if own := c.ldqCap - t.ldqHeld; own < ldqFree {
				ldqFree = own
			}
			if lim := int(ldqFree * t.invLoadRatio); lim < k {
				k = lim
				if lim <= 0 {
					k = 0
					cause = pmu.StallBELDQ
				}
			}
		}
		if !c.stqDead && t.storeRatio > 0 && k > 0 {
			stqFree := float64(c.cfg.STQSize)
			for s := range c.threads {
				stqFree -= c.threads[s].stqHeld
			}
			if own := c.stqCap - t.stqHeld; own < stqFree {
				stqFree = own
			}
			if lim := int(stqFree * t.invStoreRatio); lim < k {
				k = lim
				if lim <= 0 {
					k = 0
					cause = pmu.StallBESTQ
				}
			}
		}

		if k <= 0 {
			// Zero-dispatch cycle: exactly here the ARM backend stall
			// counter ticks. An outstanding own miss dominates the
			// fine-grained attribution.
			t.bank.Inc(pmu.StallBackend)
			if t.missLeft > 0 {
				t.bank.Inc(pmu.StallBEMemLat)
			} else {
				t.bank.Inc(cause)
			}
			continue
		}

		// Dispatch k µops.
		slots -= k
		robUsed += k
		t.robHeld += k
		if t.missLeft > 0 {
			t.iqHeld += t.depFrac * float64(k)
		}
		if !c.ldqDead {
			t.ldqHeld += t.loadRatio * float64(k)
		}
		if !c.stqDead {
			t.stqHeld += t.storeRatio * float64(k)
		}
		t.bank.Add(pmu.InstSpec, uint64(k))
		t.window -= k
		if t.inst.AdvanceDispatched(uint64(k)) {
			phaseChanged = true
		}
		if t.window == 0 {
			t.fireEvent()
		}
	}

	if phaseChanged {
		c.refreshRates()
	}
}
