// Event-driven fast-forward engine.
//
// The reference simulator (step in smtcore.go) advances one cycle at a
// time. Most cycles, however, fall into *dormant* regimes in which nothing
// data-dependent happens: both hardware threads sit on long-latency misses,
// a thread rides out a frontend squash while its ROB drains, or the core is
// idle. In those regimes every cycle has a fixed, statically known effect —
// a per-cycle counter signature plus a timer decrement — so the engine can
// jump straight to the next regime-changing event (the earliest miss or
// frontend-stall expiry) and apply the accumulated effect in bulk.
//
// The contract is strict observational equivalence with the reference loop:
// identical PMU counter values, retired-instruction counts, RNG stream
// positions and phase transitions for every cycle count. The regime
// classifier is therefore conservative — whenever a cycle could dispatch,
// retire under shared-width arbitration, or expire a timer whose side
// effects touch shared structures, the bulk tier declines and the cycles
// run through the inline-event span tier (spanlite.go). The differential
// test in fastforward_test.go enforces the equivalence bit-for-bit across
// the application catalogue. See DESIGN.md in this package for the regime
// derivations.
package smtcore

import "synpa/internal/pmu"

// Thread dormancy kinds recognised by the classifier.
const (
	notDormant   = iota
	dormantIdle  // no application bound to the slot
	dormantBE    // miss-blocked: zero-dispatch backend-stall cycles
	dormantFE    // frontend-starved and not retiring
	dormantDrain // frontend-starved while the ROB drains at retire width
)

// dispatchBlocked reports whether t would dispatch zero µops in a cycle in
// which the dispatch stage offers it every slot. It mirrors step()'s clamp
// cascade exactly (same expressions, same float evaluation order); the
// k == 0 outcome is independent of the frontend supply, so the predicate
// needs no ILP dithering. All inputs are frozen while every active thread
// is dormant and none retires, which makes a single evaluation valid for
// the whole bulk window.
func (c *Core) dispatchBlocked(t *thread) bool {
	robUsed := 0
	for s := range c.threads {
		robUsed += c.threads[s].robHeld
	}
	if c.cfg.ROBSize-robUsed <= 0 {
		return true
	}
	if c.robCap-t.robHeld <= 0 {
		return true
	}
	iqFree := float64(c.cfg.IQSize)
	for s := range c.threads {
		iqFree -= c.threads[s].iqHeld
	}
	if own := c.iqCap - t.iqHeld; own < iqFree {
		iqFree = own
	}
	if iqFree < 1 {
		return true
	}
	if t.missLeft > 0 && t.depFrac > 0 && int(iqFree*t.invDepFrac) <= 0 {
		return true
	}
	// When the LDQ/STQ clamps are statically dead the fast tiers no longer
	// maintain the queues' float bookkeeping, so the predicate must skip
	// these conditions (which cannot hold in the reference execution)
	// rather than evaluate them on stale state.
	if !c.ldqDead && t.loadRatio > 0 {
		ldqFree := float64(c.cfg.LDQSize)
		for s := range c.threads {
			ldqFree -= c.threads[s].ldqHeld
		}
		if own := c.ldqCap - t.ldqHeld; own < ldqFree {
			ldqFree = own
		}
		if int(ldqFree*t.invLoadRatio) <= 0 {
			return true
		}
	}
	if !c.stqDead && t.storeRatio > 0 {
		stqFree := float64(c.cfg.STQSize)
		for s := range c.threads {
			stqFree -= c.threads[s].stqHeld
		}
		if own := c.stqCap - t.stqHeld; own < stqFree {
			stqFree = own
		}
		if int(stqFree*t.invStoreRatio) <= 0 {
			return true
		}
	}
	return false
}

// dispatchBlockedOwn is dispatchBlocked evaluated at the loosest shared
// state the co-runner can reach — everything it holds released. Only the
// thread's own partition caps can block then. It is required when the
// co-runner retires during the bulk window: retirement monotonically grows
// every shared free count, so blocked-ness at maximum free implies
// blocked-ness at every intermediate state (each clamp is a "free below
// threshold" predicate, monotone under the float subtract/multiply/floor
// chain).
func (c *Core) dispatchBlockedOwn(t *thread) bool {
	if c.robCap-t.robHeld <= 0 {
		return true
	}
	iqFree := c.iqCap - t.iqHeld
	if iqFree < 1 {
		return true
	}
	if t.missLeft > 0 && t.depFrac > 0 && int(iqFree*t.invDepFrac) <= 0 {
		return true
	}
	if !c.ldqDead && t.loadRatio > 0 && int((c.ldqCap-t.ldqHeld)*t.invLoadRatio) <= 0 {
		return true
	}
	if !c.stqDead && t.storeRatio > 0 && int((c.stqCap-t.stqHeld)*t.invStoreRatio) <= 0 {
		return true
	}
	return false
}

// preClassify is the cheap screen run before any clamp-cascade evaluation:
// it decides the dormancy kind from integer state alone, flagging
// miss-blocked candidates for the expensive dispatchBlocked check. A thread
// that is dispatching (feLeft == 0, missLeft <= 1) fails here in a couple
// of comparisons, so mixed regimes — one thread running, one stalled — pay
// almost nothing per cycle for the fast-forward attempt.
//
// The horizon is the number of cycles the dormancy is guaranteed to
// persist: up to (exclusive) the earliest event whose side effects touch
// shared structures — a miss expiry drains iqHeld, a frontend-stall expiry
// resumes dispatch.
func (c *Core) preClassify(t *thread) (kind int, horizon uint64) {
	if t.inst == nil {
		return dormantIdle, ^uint64(0)
	}
	if t.feLeft > 0 {
		h := uint64(t.feLeft)
		if t.missLeft > 0 {
			if t.missLeft < 2 {
				return notDormant, 0
			}
			if m := uint64(t.missLeft - 1); m < h {
				h = m
			}
			return dormantFE, h
		}
		if t.robHeld == 0 {
			return dormantFE, h
		}
		return dormantDrain, h
	}
	if t.missLeft > 1 {
		return dormantBE, uint64(t.missLeft - 1)
	}
	return notDormant, 0
}

// fastForward attempts one bulk advance of at most limit cycles. It returns
// the number of cycles advanced, or 0 when the core is not in a uniformly
// dormant regime and the caller must run the span tier. An idle core is
// uniformly dormant and advances the whole limit.
func (c *Core) fastForward(limit uint64) uint64 {
	if limit == 0 {
		return 0
	}
	var kinds [MaxSMTLevel]int
	m := limit
	drainers, drainIdx := 0, -1
	for s := range c.threads {
		k, h := c.preClassify(&c.threads[s])
		if k == notDormant {
			return 0
		}
		kinds[s] = k
		if h < m {
			m = h
		}
		if k == dormantDrain {
			drainers++
			drainIdx = s
		}
	}
	// Only now pay for the clamp-cascade predicate on miss-blocked
	// candidates: a thread still filling the backend during its miss is
	// not dormant.
	for s := range c.threads {
		if kinds[s] == dormantBE && !c.dispatchBlocked(&c.threads[s]) {
			return 0
		}
	}

	// Retirement shares the retire width under rotating priority; with
	// several draining threads the per-cycle split depends on the priority
	// state, so only a lone drainer is bulk-advanced. Its retirement
	// releases shared ROB/LDQ/STQ entries, which could unblock a
	// miss-blocked co-runner mid-window: require every such co-runner to
	// be blocked by its own partition caps alone.
	if drainers > 0 {
		if drainers > 1 {
			return 0
		}
		for s := range c.threads {
			if s == drainIdx {
				continue
			}
			if kinds[s] == dormantBE && !c.dispatchBlockedOwn(&c.threads[s]) {
				return 0
			}
		}
	}

	if m == 0 {
		return 0
	}

	c.cycle += m
	c.prio = int((uint64(c.prio) + m) % uint64(len(c.threads)))
	for i := range c.threads {
		c.bulkAdvance(&c.threads[i], kinds[i], m)
	}
	return m
}

// bulkAdvance applies m cycles of thread t's dormant per-cycle effect.
func (c *Core) bulkAdvance(t *thread, kind int, m uint64) {
	switch kind {
	case dormantIdle:
		// An empty slot has no effects at all.

	case dormantBE:
		// Per-cycle signature of a miss-blocked zero-dispatch cycle with
		// an outstanding own miss (see step): CPU_CYCLES, STALL_BACKEND
		// and STALL_BE_MEMLAT tick, the miss timer counts down, and the
		// frontend-supply dither accumulator still advances because the
		// supply is computed before the clamp cascade discards it.
		t.bank.AddN(m, pmu.CPUCycles, pmu.StallBackend, pmu.StallBEMemLat)
		t.missLeft -= int(m)
		if t.ilpFrac > 0 {
			// The accumulator update rounds at every cycle, so a closed
			// form would drift from the reference stream; iterate the
			// one-flop recurrence instead (still ~50× cheaper than a
			// full step).
			acc := t.ilpAcc
			for n := uint64(0); n < m; n++ {
				acc += t.ilpFrac
				if acc >= 1 {
					acc--
				}
			}
			t.ilpAcc = acc
		}

	case dormantFE:
		// Frontend starvation with nothing to retire: STALL_FRONTEND and
		// the fine-grained cause tick, both timers count down, and the
		// supply dither does NOT advance (step bails out before it).
		fe := pmu.StallFEBranch
		if t.feKind == evICache {
			fe = pmu.StallFEICache
		}
		t.bank.AddN(m, pmu.CPUCycles, pmu.StallFrontend, fe)
		t.feLeft -= int(m)
		if t.missLeft > 0 {
			t.missLeft -= int(m)
		}

	case dormantDrain:
		// Frontend starvation while the ROB drains: the frontend-stall
		// signature plus full-width retirement. The retire arithmetic
		// must replay step()'s float operations cycle by cycle (each
		// subtraction rounds), but skips the whole dispatch cascade.
		fe := pmu.StallFEBranch
		if t.feKind == evICache {
			fe = pmu.StallFEICache
		}
		t.bank.AddN(m, pmu.CPUCycles, pmu.StallFrontend, fe)
		t.feLeft -= int(m)
		var retired uint64
		for n := uint64(0); n < m && t.robHeld > 0; n++ {
			k := c.cfg.RetireWidth
			if t.robHeld < k {
				k = t.robHeld
			}
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
				t.ldqHeld, t.stqHeld = 0, 0
			}
			retired += uint64(k)
		}
		t.bank.Add(pmu.InstRetired, retired)
		t.inst.Retired += retired
	}
}
