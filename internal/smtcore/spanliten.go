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
// lives in a fixed array of liteState instead of unrolled scalars, rate
// parameters included: they are copied from the thread at load and again
// after every refreshRates.
//
// The differential tests in fastforward_test.go and level_test.go pin this
// tier to the reference loop bit-for-bit at SMT levels 1, 3 and 4.
package smtcore

// liteState is one thread's span-local microstate.
type liteState struct {
	t      *thread
	active bool // an application is bound to the slot
	frozen bool // miss-blocked, with the blocked-ness proven invariant until the expiry

	rob, win, fe, miss, kind int
	iq, ldq, stq             float64
	acc                      float64
	pb                       int64  // dispatched instructions left before a phase boundary
	pending                  uint64 // dispatched instructions not yet fed to AdvanceDispatched
	cnt                      liteCounters

	// Rate parameters, copied from the thread (see loadRates).
	base                int
	frac                float64
	loadR, storeR, depF float64
	invD, invL, invS    float64
}

// runSpanLiteN's occupancy sums name the four entries of its state array
// (unused entries hold +0): these constants overflow, and the build fails,
// if MaxSMTLevel is not 4.
const (
	_ = uint(MaxSMTLevel - 4)
	_ = uint(4 - MaxSMTLevel)
)

// load copies the thread's microstate into the span locals.
func (st *liteState) load() {
	t := st.t
	st.rob, st.win, st.fe, st.miss, st.kind = t.robHeld, t.window, t.feLeft, t.missLeft, t.feKind
	st.iq, st.ldq, st.stq = t.iqHeld, t.ldqHeld, t.stqHeld
}

// sync writes the span locals back to the thread (the ILP accumulator is
// synced separately, where Tier 1 or the flush reads it).
func (st *liteState) sync() {
	t := st.t
	t.robHeld, t.window, t.feLeft, t.missLeft = st.rob, st.win, st.fe, st.miss
	t.iqHeld, t.ldqHeld, t.stqHeld = st.iq, st.ldq, st.stq
}

// loadRates copies the thread's contention-adjusted rate parameters, which
// change only in refreshRates.
func (st *liteState) loadRates() {
	t := st.t
	st.base, st.frac = t.ilpBase, t.ilpFrac
	st.loadR, st.storeR, st.depF = t.loadRatio, t.storeRatio, t.depFrac
	st.invD, st.invL, st.invS = t.invDepFrac, t.invLoadRatio, t.invStoreRatio
}

// runSpanLiteN executes exactly limit cycles on a core of any SMT level,
// skipping in place the dormant windows Tier 1 can skip (skipDormant).
func (c *Core) runSpanLiteN(limit uint64) {
	level := len(c.threads)
	var sts [MaxSMTLevel]liteState
	for s := range sts[:level] {
		st := &sts[s]
		st.t = &c.threads[s]
		if st.t.inst == nil {
			continue
		}
		st.active = true
		st.load()
		st.loadRates()
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

	n := limit // span cycles plus the cycles left; in-place skips shrink it
	i := uint64(0)
	crossed := false
	stallStreak := 0
	prio := c.prio

	for i < n {
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
			if !ldqDead {
				st.ldq -= st.loadR * float64(k)
				if st.ldq < 0 {
					st.ldq = 0
				}
			}
			if !stqDead {
				st.stq -= st.storeR * float64(k)
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
		for s := range sts[:level] {
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
		robUsed := sts[0].rob + sts[1].rob + sts[2].rob + sts[3].rob
		dispatched := false
		for o, s := 0, first; o < level; o++ {
			st := &sts[s]
			if s++; s == level {
				s = 0
			}
			if !st.active {
				continue
			}
			if st.frozen {
				// Miss-blocked with the blocked-ness proven invariant: the
				// supply dither still advances before the cascade discards
				// it, exactly as in step().
				st.acc += st.frac
				st.acc -= float64(ilpCarry(st.acc))
				st.cnt.memLatCnt++
				continue
			}
			if st.fe > 0 {
				st.fe--
				if st.kind == evICache {
					st.cnt.feICnt++
				} else {
					st.cnt.feBCnt++
				}
				continue
			}
			st.acc += st.frac
			carry := ilpCarry(st.acc)
			st.acc -= float64(carry)
			k := st.base + carry
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
			iqFree := iqSizeF - sts[0].iq - sts[1].iq - sts[2].iq - sts[3].iq
			if own := iqCap - st.iq; own < iqFree {
				iqFree = own
			}
			if iqFree < 1 {
				k = 0
				cause = 5
			} else if st.miss > 0 && st.depF > 0 {
				if lim := int(iqFree * st.invD); lim < k {
					k = lim
					if lim <= 0 {
						k = 0
						cause = 5
					}
				}
			}
			if !ldqDead && st.loadR > 0 && k > 0 {
				ldqFree := ldqSizeF - sts[0].ldq - sts[1].ldq - sts[2].ldq - sts[3].ldq
				if own := ldqCap - st.ldq; own < ldqFree {
					ldqFree = own
				}
				if lim := int(ldqFree * st.invL); lim < k {
					k = lim
					if lim <= 0 {
						k = 0
						cause = 3
					}
				}
			}
			if !stqDead && st.storeR > 0 && k > 0 {
				stqFree := stqSizeF - sts[0].stq - sts[1].stq - sts[2].stq - sts[3].stq
				if own := stqCap - st.stq; own < stqFree {
					stqFree = own
				}
				if lim := int(stqFree * st.invS); lim < k {
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
					if c.dispatchBlockedOwn(st.t) {
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
				st.iq += st.depF * float64(k)
			}
			if !ldqDead {
				st.ldq += st.loadR * float64(k)
			}
			if !stqDead {
				st.stq += st.storeR * float64(k)
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
				st.t.fireEvent()
				st.load()
			}
		}

		// --- end of cycle -----------------------------------------------
		if crossed {
			// A phase boundary was crossed this cycle: feed the deferred
			// dispatched counts (AdvanceDispatched is chunk-associative) and
			// refresh the contention rates where step() does.
			crossed = false
			for s := range sts[:level] {
				if st := &sts[s]; st.pending > 0 {
					st.t.inst.AdvanceDispatched(st.pending)
					st.pending = 0
				}
			}
			c.refreshRates()
			for s := range sts[:level] {
				if st := &sts[s]; st.active {
					st.loadRates()
					st.pb = int64(st.t.inst.InstsToPhaseBoundary())
				}
			}
		}
		if dispatched {
			stallStreak = 0
			continue
		}
		// No dispatch this cycle: on full dormancy or a short stall streak,
		// let Tier 1 skip what it can of the rest of the span.
		dormant := true
		for s := range sts[:level] {
			if st := &sts[s]; st.active && !st.frozen && st.fe == 0 {
				dormant = false
				break
			}
		}
		if !dormant {
			if stallStreak++; stallStreak < maxStallStreak {
				continue
			}
		}
		stallStreak = 0
		if i == n {
			break
		}
		for s := range sts[:level] {
			if st := &sts[s]; st.active {
				st.sync()
				st.t.ilpAcc = st.acc
			}
		}
		c.prio = prio
		if skipped := c.skipDormant(n - i); skipped > 0 {
			n -= skipped
			prio = c.prio
			for s := range sts[:level] {
				if st := &sts[s]; st.active {
					st.load()
					st.acc = st.t.ilpAcc
				}
			}
		}
	}

	// --- flush ------------------------------------------------------------
	c.cycle += i
	c.prio = prio
	for s := range sts[:level] {
		st := &sts[s]
		if !st.active {
			continue
		}
		st.sync()
		st.t.ilpAcc = st.acc
		flushLite(st.t, i, &st.cnt, st.pending)
	}
	c.engine.SpanCycles += i
}
