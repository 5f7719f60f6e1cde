// Generic inline-event span tier for SMT levels other than 2.
//
// This is the slice-based form of the unrolled SMT2 tier in spanlite.go and
// runs the same algorithm: step()'s per-cycle arithmetic transcribed
// operation for operation (same expressions, same float evaluation order,
// threads visited in the same rotating-priority order), with stall events
// fired inline through the shared fireEvent, outstanding misses counted
// down per cycle, phase crossings refreshing the contention rates at the
// end of the crossing cycle, and miss-blocked threads frozen once
// dispatchBlockedOwn proves the blocked-ness invariant. Per-thread state
// lives in a fixed array of liteState instead of unrolled scalars; the
// per-thread rate parameters are read from the thread itself, which
// refreshRates updates in place.
//
// The differential tests in fastforward_test.go and level_test.go pin this
// tier to the reference loop bit-for-bit at SMT levels 1, 3 and 4.
package smtcore

// liteState is one thread's span-local microstate.
type liteState struct {
	t      *thread
	active bool // an application is bound to the slot
	frozen bool // miss-blocked, with the blocked-ness proven invariant until the expiry

	rob, win, fe, miss int
	iq, ldq, stq       float64
	acc                float64
	pb                 int64  // dispatched instructions left before a phase boundary
	pending            uint64 // dispatched instructions not yet fed to AdvanceDispatched
	cnt                liteCounters
}

// load copies the thread's microstate into the span locals.
func (st *liteState) load() {
	t := st.t
	st.rob, st.win, st.fe, st.miss = t.robHeld, t.window, t.feLeft, t.missLeft
	st.iq, st.ldq, st.stq = t.iqHeld, t.ldqHeld, t.stqHeld
}

// sync writes the span locals back to the thread (the ILP accumulator is
// written at the flush only; nothing read mid-span depends on it).
func (st *liteState) sync() {
	t := st.t
	t.robHeld, t.window, t.feLeft, t.missLeft = st.rob, st.win, st.fe, st.miss
	t.iqHeld, t.ldqHeld, t.stqHeld = st.iq, st.ldq, st.stq
}

// runSpanLiteN executes up to limit cycles on a core of any SMT level,
// returning the number executed. It runs at least one cycle whenever
// limit > 0, and ends early only when every active thread has gone dormant
// or dispatch has stalled for a short streak.
func (c *Core) runSpanLiteN(limit uint64) uint64 {
	level := len(c.threads)
	var sts [MaxSMTLevel]liteState
	for s := 0; s < level; s++ {
		st := &sts[s]
		st.t = &c.threads[s]
		if st.t.inst == nil {
			continue
		}
		st.active = true
		st.load()
		st.acc = st.t.ilpAcc
		st.pb = int64(st.t.inst.InstsToPhaseBoundary())
	}

	// --- hoist the core parameters -------------------------------------
	dispW, retireW := c.cfg.DispatchWidth, c.cfg.RetireWidth
	robSize := c.cfg.ROBSize
	robCap := c.robCap
	iqSizeF := float64(c.cfg.IQSize)
	ldqSizeF := float64(c.cfg.LDQSize)
	stqSizeF := float64(c.cfg.STQSize)
	iqCap := c.iqCap
	ldqCap, stqCap := c.ldqCap, c.stqCap
	ldqDead, stqDead := c.ldqDead, c.stqDead

	i := uint64(0)
	stop := false
	crossed := false
	stallStreak := 0
	prio := c.prio

	for i < limit && !stop {
		i++
		first := prio
		if prio++; prio == level {
			prio = 0
		}

		// --- retire stage (mirrors step) -------------------------------
		retireLeft := retireW
		for o, s := 0, first; o < level && retireLeft > 0; o++ {
			st := &sts[s]
			if s++; s == level {
				s = 0
			}
			if !st.active || st.miss > 0 || st.rob == 0 {
				continue
			}
			k := st.rob
			if k > retireLeft {
				k = retireLeft
			}
			retireLeft -= k
			st.rob -= k
			t := st.t
			if !ldqDead {
				st.ldq -= t.loadRatio * float64(k)
				if st.ldq < 0 {
					st.ldq = 0
				}
			}
			if !stqDead {
				st.stq -= t.storeRatio * float64(k)
				if st.stq < 0 {
					st.stq = 0
				}
			}
			if st.rob == 0 {
				st.ldq, st.stq = 0, 0
			}
			st.cnt.ret += uint64(k)
		}

		// --- miss timers (index order, mirrors step) --------------------
		for s := 0; s < level; s++ {
			st := &sts[s]
			if st.active && st.miss > 0 {
				if st.miss--; st.miss == 0 {
					st.iq = 0
					st.frozen = false
				}
			}
		}

		// --- dispatch stage (mirrors step) ------------------------------
		slots := dispW
		robUsed := 0
		for s := 0; s < level; s++ {
			robUsed += sts[s].rob
		}
		dispatched := false
		for o, s := 0, first; o < level; o++ {
			st := &sts[s]
			if s++; s == level {
				s = 0
			}
			if !st.active {
				continue
			}
			t := st.t
			if st.frozen {
				// Miss-blocked with the blocked-ness proven invariant: the
				// supply dither still advances before the cascade discards
				// it, exactly as in step().
				st.acc += t.ilpFrac
				if st.acc >= 1 {
					st.acc--
				}
				st.cnt.memLatCnt++
				continue
			}
			if st.fe > 0 {
				st.fe--
				if t.feKind == evICache {
					st.cnt.feICnt++
				} else {
					st.cnt.feBCnt++
				}
				continue
			}
			supply := t.ilpBase
			st.acc += t.ilpFrac
			if st.acc >= 1 {
				supply++
				st.acc--
			}
			k := supply
			cause := 0
			if st.win < k {
				k = st.win
			}
			if slots < k {
				k = slots
				if slots == 0 {
					cause = 1
				}
			}
			if free := robSize - robUsed; free < k {
				k = free
				if free <= 0 {
					k = 0
					cause = 2
				}
			}
			if free := robCap - st.rob; free < k {
				k = free
				if free <= 0 {
					k = 0
					cause = 2
				}
			}
			iqFree := iqSizeF
			for q := 0; q < level; q++ {
				iqFree -= sts[q].iq
			}
			if own := iqCap - st.iq; own < iqFree {
				iqFree = own
			}
			if iqFree < 1 {
				k = 0
				cause = 5
			} else if st.miss > 0 && t.depFrac > 0 {
				if lim := int(iqFree * t.invDepFrac); lim < k {
					k = lim
					if lim <= 0 {
						k = 0
						cause = 5
					}
				}
			}
			if !ldqDead && t.loadRatio > 0 && k > 0 {
				ldqFree := ldqSizeF
				for q := 0; q < level; q++ {
					ldqFree -= sts[q].ldq
				}
				if own := ldqCap - st.ldq; own < ldqFree {
					ldqFree = own
				}
				if lim := int(ldqFree * t.invLoadRatio); lim < k {
					k = lim
					if lim <= 0 {
						k = 0
						cause = 3
					}
				}
			}
			if !stqDead && t.storeRatio > 0 && k > 0 {
				stqFree := stqSizeF
				for q := 0; q < level; q++ {
					stqFree -= sts[q].stq
				}
				if own := stqCap - st.stq; own < stqFree {
					stqFree = own
				}
				if lim := int(stqFree * t.invStoreRatio); lim < k {
					k = lim
					if lim <= 0 {
						k = 0
						cause = 4
					}
				}
			}
			if k <= 0 {
				if st.miss > 0 {
					st.cnt.memLatCnt++
					// Zero-dispatch under an own miss: if the thread's own
					// partition caps alone block it, the outcome is
					// invariant until the expiry, so the cascade freezes.
					st.sync()
					if c.dispatchBlockedOwn(t) {
						st.frozen = true
					}
				} else {
					st.cnt.countStall(cause)
				}
				continue
			}
			dispatched = true
			slots -= k
			robUsed += k
			st.rob += k
			if st.miss > 0 {
				st.iq += t.depFrac * float64(k)
			}
			if !ldqDead {
				st.ldq += t.loadRatio * float64(k)
			}
			if !stqDead {
				st.stq += t.storeRatio * float64(k)
			}
			st.cnt.spec += uint64(k)
			st.pending += uint64(k)
			st.win -= k
			if st.pb -= int64(k); st.pb <= 0 {
				crossed = true
			}
			if st.win == 0 {
				// Window exhausted: fire the stall event exactly where
				// step() does, on synced thread state (same RNG stream).
				st.sync()
				t.fireEvent()
				st.load()
			}
		}

		// --- end of cycle -----------------------------------------------
		if crossed {
			// A phase boundary was crossed this cycle: feed the deferred
			// dispatched counts (AdvanceDispatched is chunk-associative) and
			// refresh the contention rates where step() does.
			crossed = false
			for s := 0; s < level; s++ {
				if st := &sts[s]; st.pending > 0 {
					st.t.inst.AdvanceDispatched(st.pending)
					st.pending = 0
				}
			}
			c.refreshRates()
			for s := 0; s < level; s++ {
				if st := &sts[s]; st.active {
					st.pb = int64(st.t.inst.InstsToPhaseBoundary())
				}
			}
		}
		if dispatched {
			stallStreak = 0
		} else {
			// No dispatch this cycle: hand a fully dormant core to the bulk
			// tier, and end the span after a short stall streak so the bulk
			// tier can re-screen.
			dormant := true
			for s := 0; s < level; s++ {
				if st := &sts[s]; st.active && !st.frozen && st.fe == 0 {
					dormant = false
					break
				}
			}
			if dormant {
				stop = true
			} else if stallStreak++; stallStreak >= maxStallStreak {
				stop = true
			}
		}
	}

	// --- flush ------------------------------------------------------------
	c.cycle += i
	c.prio = prio
	for s := 0; s < level; s++ {
		st := &sts[s]
		if !st.active {
			continue
		}
		st.sync()
		st.t.ilpAcc = st.acc
		flushLite(st.t, i, &st.cnt, st.pending)
	}
	return i
}
