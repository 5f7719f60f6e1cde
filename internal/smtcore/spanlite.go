// Steady/active span — the inline-event span tier of the fast-forward engine.
//
// This tier executes long runs of cycles entirely on span locals,
// transcribing step()'s per-cycle arithmetic operation for operation, and
// handles the regime changes *inline* instead of ending the span at every
// one of them:
//
//   - a consumed event window fires its stall event on the spot: the thread
//     state is synced back, the shared fireEvent runs (same RNG stream,
//     same arithmetic), and the span continues with the reloaded state;
//   - outstanding misses count down in a per-cycle timer stage mirroring
//     step(), and the expiry drains iqHeld exactly where step() drains it;
//   - phase boundaries are detected by a local countdown of the distance
//     InstsToPhaseBoundary reported, and the crossing refreshes the
//     contention rates at the end of the crossing cycle — the same point
//     step() refreshes them — before the span continues;
//   - a thread that goes miss-blocked freezes — its cascade collapses to
//     the fixed zero-dispatch signature — once dispatchBlockedOwn proves
//     the blocked-ness invariant until the expiry (the thread's own state
//     cannot change while it neither dispatches, retires nor fires events).
//
// A span ends only at the cycle limit. When every active thread has gone
// dormant, or after a short streak of contention-stalled cycles, the span
// syncs its locals and lets the bulk tier in fastforward.go skip what it
// can in place (skipDormant), then reloads and continues. PMU counters
// accumulate in per-thread liteCounters and flush once per span.
//
// The algorithm has two layouts. At SMT2 (runSpanLite2 below) every
// per-thread quantity is a scalar local and the two dispatch-priority
// parities are unrolled, so that no dynamically indexed state remains and
// the cycle body register-allocates; the parity bodies are deliberate
// near-duplicates of each other and of step(). Every other level runs the
// slice-based form in spanliten.go. The differential tests in
// fastforward_test.go pin both layouts to the reference loop.
package smtcore

import (
	"math"

	"synpa/internal/pmu"
)

// maxStallStreak is the number of consecutive contention-stalled cycles
// (no dispatch, some thread not dormant) after which a span lets the bulk
// tier re-screen.
const maxStallStreak = 8

// liteCounters accumulates one thread's per-cycle PMU signatures over a
// span. Frontend stalls are split by cause, since one span can cover stalls
// of both kinds.
type liteCounters struct {
	spec, ret                        uint64
	feICnt, feBCnt                   uint64
	slotsCnt, robCnt, ldqCnt, stqCnt uint64
	iqCnt, otherCnt, memLatCnt       uint64
}

// runSpanLite executes exactly limit cycles through the span tier, skipping
// the dormant windows Tier 1 can skip in place (skipDormant). SMT2 cores run
// the unrolled layout, which is measurably faster there (DESIGN.md, Tier 2);
// every other level runs the slice-based one.
func (c *Core) runSpanLite(limit uint64) {
	if len(c.threads) == 2 {
		c.runSpanLite2(limit)
		return
	}
	c.runSpanLiteN(limit)
}

// skipDormant runs Tier 1 until it declines or limit cycles have passed and
// returns the cycles it skipped. Run calls it before a span, and a span
// calls it in place whenever it goes fully dormant or completes a
// contention streak: at the same cycles, on the same state, where a span
// that ended there would hand back to Run. The thread structs and c.prio
// must be synced first.
func (c *Core) skipDormant(limit uint64) uint64 {
	var skipped uint64
	for skipped < limit {
		m := c.fastForward(limit - skipped)
		if m == 0 {
			break
		}
		skipped += m
	}
	c.engine.FFCycles += skipped
	return skipped
}

// ilpCarry returns 1 when the ILP dither accumulator has reached 1 and 0
// otherwise, without a branch: a branch on the carry follows the fractional
// ILP and mispredicts often. It is exact for acc in [+0, 2), the
// accumulator's whole range (DESIGN.md, Tier 2): non-negative floats order
// as their bit patterns do, and subtracting a zero carry leaves acc
// unchanged.
func ilpCarry(acc float64) int {
	return int((math.Float64bits(acc)-oneBits)>>63 ^ 1)
}

// oneBits is the bit pattern of 1.0.
const oneBits = 0x3FF0000000000000

// runSpanLite2 is the SMT2 tier: every per-thread quantity lives in a
// scalar local, the two dispatch-priority parities are unrolled, and stall
// events, miss expiries and phase crossings are handled inline.
func (c *Core) runSpanLite2(limit uint64) {
	t0, t1 := &c.threads[0], &c.threads[1]
	active0, active1 := t0.inst != nil, t1.inst != nil
	n := limit // span cycles plus the cycles left; in-place skips shrink it

	// --- hoist state into scalar locals ------------------------------------
	dispW, retireW := c.cfg.DispatchWidth, c.cfg.RetireWidth
	robSize := c.cfg.ROBSize
	robCap := c.robCap
	iqSizeF := float64(c.cfg.IQSize)
	ldqSizeF := float64(c.cfg.LDQSize)
	stqSizeF := float64(c.cfg.STQSize)
	iqCap := c.iqCap
	ldqCap, stqCap := c.ldqCap, c.stqCap
	ldqDead, stqDead := c.ldqDead, c.stqDead
	var (
		rob0, win0, fe0, miss0, kind0 int
		rob1, win1, fe1, miss1, kind1 int
		iqH0, ldq0, stq0              float64
		iqH1, ldq1, stq1              float64
		acc0, frac0, acc1, frac1      float64
		base0, base1                  int
		loadR0, storeR0               float64
		loadR1, storeR1               float64
		depF0, depF1                  float64
		invD0, invD1                  float64
		invL0, invS0, invL1, invS1    float64
		pb0, pb1                      int64
		specPend0, specPend1          uint64
		frozen0, frozen1              bool
		cnt0, cnt1                    liteCounters
	)
	if active0 {
		rob0, win0, fe0, miss0, kind0 = t0.robHeld, t0.window, t0.feLeft, t0.missLeft, t0.feKind
		iqH0, ldq0, stq0 = t0.iqHeld, t0.ldqHeld, t0.stqHeld
		acc0, frac0, base0 = t0.ilpAcc, t0.ilpFrac, t0.ilpBase
		loadR0, storeR0, depF0 = t0.loadRatio, t0.storeRatio, t0.depFrac
		invD0, invL0, invS0 = t0.invDepFrac, t0.invLoadRatio, t0.invStoreRatio
		pb0 = int64(t0.inst.InstsToPhaseBoundary())
	}
	if active1 {
		rob1, win1, fe1, miss1, kind1 = t1.robHeld, t1.window, t1.feLeft, t1.missLeft, t1.feKind
		iqH1, ldq1, stq1 = t1.iqHeld, t1.ldqHeld, t1.stqHeld
		acc1, frac1, base1 = t1.ilpAcc, t1.ilpFrac, t1.ilpBase
		loadR1, storeR1, depF1 = t1.loadRatio, t1.storeRatio, t1.depFrac
		invD1, invL1, invS1 = t1.invDepFrac, t1.invLoadRatio, t1.invStoreRatio
		pb1 = int64(t1.inst.InstsToPhaseBoundary())
	}

	i := uint64(0)
	crossed := false
	stallStreak := 0
	runOdd := c.prio == 1

	for i < n {
		i++
		dispatched := false
		if !runOdd {
			runOdd = true
			// ===== cycle with thread 0 first ==========================
			retireLeft := retireW
			if active0 && miss0 == 0 && rob0 > 0 {
				k := rob0
				if k > retireLeft {
					k = retireLeft
				}
				retireLeft -= k
				rob0 -= k
				if !ldqDead {
					ldq0 -= loadR0 * float64(k)
					if ldq0 < 0 {
						ldq0 = 0
					}
				}
				if !stqDead {
					stq0 -= storeR0 * float64(k)
					if stq0 < 0 {
						stq0 = 0
					}
				}
				if rob0 == 0 {
					ldq0, stq0 = 0, 0
				}
				cnt0.ret += uint64(k)
			}
			if active1 && miss1 == 0 && rob1 > 0 && retireLeft > 0 {
				k := rob1
				if k > retireLeft {
					k = retireLeft
				}
				rob1 -= k
				if !ldqDead {
					ldq1 -= loadR1 * float64(k)
					if ldq1 < 0 {
						ldq1 = 0
					}
				}
				if !stqDead {
					stq1 -= storeR1 * float64(k)
					if stq1 < 0 {
						stq1 = 0
					}
				}
				if rob1 == 0 {
					ldq1, stq1 = 0, 0
				}
				cnt1.ret += uint64(k)
			}
			// --- miss timers (index order, mirrors step) -----------------
			if active0 && miss0 > 0 {
				if miss0--; miss0 == 0 {
					iqH0 = 0
					frozen0 = false
				}
			}
			if active1 && miss1 > 0 {
				if miss1--; miss1 == 0 {
					iqH1 = 0
					frozen1 = false
				}
			}
			// --- dispatch stage ------------------------------------------
			slots := dispW
			robUsed := rob0 + rob1
			if active0 {
				if frozen0 {
					// Miss-blocked with the blocked-ness proven invariant:
					// the supply dither still advances before the cascade
					// discards it, exactly as in step().
					acc0 += frac0
					acc0 -= float64(ilpCarry(acc0))
					cnt0.memLatCnt++
				} else if fe0 > 0 {
					fe0--
					if kind0 == evICache {
						cnt0.feICnt++
					} else {
						cnt0.feBCnt++
					}
				} else {
					acc0 += frac0
					carry := ilpCarry(acc0)
					acc0 -= float64(carry)
					k := base0 + carry
					cause := 0
					if win0 < k {
						k = win0
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
					if free := robCap - rob0; free < k {
						k = free
						if free <= 0 {
							k = 0
							cause = 2
						}
					}
					iqFree := iqSizeF - iqH0 - iqH1
					if own := iqCap - iqH0; own < iqFree {
						iqFree = own
					}
					if iqFree < 1 {
						k = 0
						cause = 5
					} else if miss0 > 0 && depF0 > 0 {
						if lim := int(iqFree * invD0); lim < k {
							k = lim
							if lim <= 0 {
								k = 0
								cause = 5
							}
						}
					}
					if !ldqDead && loadR0 > 0 && k > 0 {
						ldqFree := ldqSizeF - ldq0 - ldq1
						if own := ldqCap - ldq0; own < ldqFree {
							ldqFree = own
						}
						if lim := int(ldqFree * invL0); lim < k {
							k = lim
							if lim <= 0 {
								k = 0
								cause = 3
							}
						}
					}
					if !stqDead && storeR0 > 0 && k > 0 {
						stqFree := stqSizeF - stq0 - stq1
						if own := stqCap - stq0; own < stqFree {
							stqFree = own
						}
						if lim := int(stqFree * invS0); lim < k {
							k = lim
							if lim <= 0 {
								k = 0
								cause = 4
							}
						}
					}
					if k <= 0 {
						if miss0 > 0 {
							cnt0.memLatCnt++
							// Zero-dispatch under an own miss: if the
							// thread's own partition caps alone block it,
							// the outcome is invariant until the expiry
							// (nothing it does can change its own state),
							// so the cascade can freeze.
							t0.robHeld, t0.iqHeld, t0.ldqHeld, t0.stqHeld = rob0, iqH0, ldq0, stq0
							t0.missLeft = miss0
							if c.dispatchBlockedOwn(t0) {
								frozen0 = true
							}
						} else {
							cnt0.countStall(cause)
						}
					} else {
						dispatched = true
						slots -= k
						robUsed += k
						rob0 += k
						if miss0 > 0 {
							iqH0 += depF0 * float64(k)
						}
						if !ldqDead {
							ldq0 += loadR0 * float64(k)
						}
						if !stqDead {
							stq0 += storeR0 * float64(k)
						}
						cnt0.spec += uint64(k)
						specPend0 += uint64(k)
						win0 -= k
						if pb0 -= int64(k); pb0 <= 0 {
							crossed = true
						}
						if win0 == 0 {
							// Window exhausted: fire the stall event exactly
							// where step() does, via the shared fireEvent on
							// synced thread state (same RNG stream).
							t0.robHeld, t0.iqHeld, t0.ldqHeld, t0.stqHeld = rob0, iqH0, ldq0, stq0
							t0.missLeft, t0.feLeft, t0.window = miss0, 0, 0
							t0.fireEvent()
							rob0, iqH0, ldq0, stq0 = t0.robHeld, t0.iqHeld, t0.ldqHeld, t0.stqHeld
							miss0, fe0, kind0, win0 = t0.missLeft, t0.feLeft, t0.feKind, t0.window
						}
					}
				}
			}
			if active1 {
				if frozen1 {
					// Miss-blocked with the blocked-ness proven invariant:
					// the supply dither still advances before the cascade
					// discards it, exactly as in step().
					acc1 += frac1
					acc1 -= float64(ilpCarry(acc1))
					cnt1.memLatCnt++
				} else if fe1 > 0 {
					fe1--
					if kind1 == evICache {
						cnt1.feICnt++
					} else {
						cnt1.feBCnt++
					}
				} else {
					acc1 += frac1
					carry := ilpCarry(acc1)
					acc1 -= float64(carry)
					k := base1 + carry
					cause := 0
					if win1 < k {
						k = win1
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
					if free := robCap - rob1; free < k {
						k = free
						if free <= 0 {
							k = 0
							cause = 2
						}
					}
					iqFree := iqSizeF - iqH0 - iqH1
					if own := iqCap - iqH1; own < iqFree {
						iqFree = own
					}
					if iqFree < 1 {
						k = 0
						cause = 5
					} else if miss1 > 0 && depF1 > 0 {
						if lim := int(iqFree * invD1); lim < k {
							k = lim
							if lim <= 0 {
								k = 0
								cause = 5
							}
						}
					}
					if !ldqDead && loadR1 > 0 && k > 0 {
						ldqFree := ldqSizeF - ldq0 - ldq1
						if own := ldqCap - ldq1; own < ldqFree {
							ldqFree = own
						}
						if lim := int(ldqFree * invL1); lim < k {
							k = lim
							if lim <= 0 {
								k = 0
								cause = 3
							}
						}
					}
					if !stqDead && storeR1 > 0 && k > 0 {
						stqFree := stqSizeF - stq0 - stq1
						if own := stqCap - stq1; own < stqFree {
							stqFree = own
						}
						if lim := int(stqFree * invS1); lim < k {
							k = lim
							if lim <= 0 {
								k = 0
								cause = 4
							}
						}
					}
					if k <= 0 {
						if miss1 > 0 {
							cnt1.memLatCnt++
							t1.robHeld, t1.iqHeld, t1.ldqHeld, t1.stqHeld = rob1, iqH1, ldq1, stq1
							t1.missLeft = miss1
							if c.dispatchBlockedOwn(t1) {
								frozen1 = true
							}
						} else {
							cnt1.countStall(cause)
						}
					} else {
						dispatched = true
						slots -= k
						rob1 += k
						if miss1 > 0 {
							iqH1 += depF1 * float64(k)
						}
						if !ldqDead {
							ldq1 += loadR1 * float64(k)
						}
						if !stqDead {
							stq1 += storeR1 * float64(k)
						}
						cnt1.spec += uint64(k)
						specPend1 += uint64(k)
						win1 -= k
						if pb1 -= int64(k); pb1 <= 0 {
							crossed = true
						}
						if win1 == 0 {
							t1.robHeld, t1.iqHeld, t1.ldqHeld, t1.stqHeld = rob1, iqH1, ldq1, stq1
							t1.missLeft, t1.feLeft, t1.window = miss1, 0, 0
							t1.fireEvent()
							rob1, iqH1, ldq1, stq1 = t1.robHeld, t1.iqHeld, t1.ldqHeld, t1.stqHeld
							miss1, fe1, kind1, win1 = t1.missLeft, t1.feLeft, t1.feKind, t1.window
						}
					}
				}
			}
		} else {
			runOdd = false
			// ===== cycle with thread 1 first ==============================
			retireLeft := retireW
			if active1 && miss1 == 0 && rob1 > 0 {
				k := rob1
				if k > retireLeft {
					k = retireLeft
				}
				retireLeft -= k
				rob1 -= k
				if !ldqDead {
					ldq1 -= loadR1 * float64(k)
					if ldq1 < 0 {
						ldq1 = 0
					}
				}
				if !stqDead {
					stq1 -= storeR1 * float64(k)
					if stq1 < 0 {
						stq1 = 0
					}
				}
				if rob1 == 0 {
					ldq1, stq1 = 0, 0
				}
				cnt1.ret += uint64(k)
			}
			if active0 && miss0 == 0 && rob0 > 0 && retireLeft > 0 {
				k := rob0
				if k > retireLeft {
					k = retireLeft
				}
				rob0 -= k
				if !ldqDead {
					ldq0 -= loadR0 * float64(k)
					if ldq0 < 0 {
						ldq0 = 0
					}
				}
				if !stqDead {
					stq0 -= storeR0 * float64(k)
					if stq0 < 0 {
						stq0 = 0
					}
				}
				if rob0 == 0 {
					ldq0, stq0 = 0, 0
				}
				cnt0.ret += uint64(k)
			}
			// --- miss timers (index order, mirrors step) -----------------
			if active0 && miss0 > 0 {
				if miss0--; miss0 == 0 {
					iqH0 = 0
					frozen0 = false
				}
			}
			if active1 && miss1 > 0 {
				if miss1--; miss1 == 0 {
					iqH1 = 0
					frozen1 = false
				}
			}
			// --- dispatch stage ------------------------------------------
			slots := dispW
			robUsed := rob0 + rob1
			if active1 {
				if frozen1 {
					// Miss-blocked with the blocked-ness proven invariant:
					// the supply dither still advances before the cascade
					// discards it, exactly as in step().
					acc1 += frac1
					acc1 -= float64(ilpCarry(acc1))
					cnt1.memLatCnt++
				} else if fe1 > 0 {
					fe1--
					if kind1 == evICache {
						cnt1.feICnt++
					} else {
						cnt1.feBCnt++
					}
				} else {
					acc1 += frac1
					carry := ilpCarry(acc1)
					acc1 -= float64(carry)
					k := base1 + carry
					cause := 0
					if win1 < k {
						k = win1
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
					if free := robCap - rob1; free < k {
						k = free
						if free <= 0 {
							k = 0
							cause = 2
						}
					}
					iqFree := iqSizeF - iqH0 - iqH1
					if own := iqCap - iqH1; own < iqFree {
						iqFree = own
					}
					if iqFree < 1 {
						k = 0
						cause = 5
					} else if miss1 > 0 && depF1 > 0 {
						if lim := int(iqFree * invD1); lim < k {
							k = lim
							if lim <= 0 {
								k = 0
								cause = 5
							}
						}
					}
					if !ldqDead && loadR1 > 0 && k > 0 {
						ldqFree := ldqSizeF - ldq0 - ldq1
						if own := ldqCap - ldq1; own < ldqFree {
							ldqFree = own
						}
						if lim := int(ldqFree * invL1); lim < k {
							k = lim
							if lim <= 0 {
								k = 0
								cause = 3
							}
						}
					}
					if !stqDead && storeR1 > 0 && k > 0 {
						stqFree := stqSizeF - stq0 - stq1
						if own := stqCap - stq1; own < stqFree {
							stqFree = own
						}
						if lim := int(stqFree * invS1); lim < k {
							k = lim
							if lim <= 0 {
								k = 0
								cause = 4
							}
						}
					}
					if k <= 0 {
						if miss1 > 0 {
							cnt1.memLatCnt++
							t1.robHeld, t1.iqHeld, t1.ldqHeld, t1.stqHeld = rob1, iqH1, ldq1, stq1
							t1.missLeft = miss1
							if c.dispatchBlockedOwn(t1) {
								frozen1 = true
							}
						} else {
							cnt1.countStall(cause)
						}
					} else {
						dispatched = true
						slots -= k
						robUsed += k
						rob1 += k
						if miss1 > 0 {
							iqH1 += depF1 * float64(k)
						}
						if !ldqDead {
							ldq1 += loadR1 * float64(k)
						}
						if !stqDead {
							stq1 += storeR1 * float64(k)
						}
						cnt1.spec += uint64(k)
						specPend1 += uint64(k)
						win1 -= k
						if pb1 -= int64(k); pb1 <= 0 {
							crossed = true
						}
						if win1 == 0 {
							t1.robHeld, t1.iqHeld, t1.ldqHeld, t1.stqHeld = rob1, iqH1, ldq1, stq1
							t1.missLeft, t1.feLeft, t1.window = miss1, 0, 0
							t1.fireEvent()
							rob1, iqH1, ldq1, stq1 = t1.robHeld, t1.iqHeld, t1.ldqHeld, t1.stqHeld
							miss1, fe1, kind1, win1 = t1.missLeft, t1.feLeft, t1.feKind, t1.window
						}
					}
				}
			}
			if active0 {
				if frozen0 {
					// Miss-blocked with the blocked-ness proven invariant:
					// the supply dither still advances before the cascade
					// discards it, exactly as in step().
					acc0 += frac0
					acc0 -= float64(ilpCarry(acc0))
					cnt0.memLatCnt++
				} else if fe0 > 0 {
					fe0--
					if kind0 == evICache {
						cnt0.feICnt++
					} else {
						cnt0.feBCnt++
					}
				} else {
					acc0 += frac0
					carry := ilpCarry(acc0)
					acc0 -= float64(carry)
					k := base0 + carry
					cause := 0
					if win0 < k {
						k = win0
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
					if free := robCap - rob0; free < k {
						k = free
						if free <= 0 {
							k = 0
							cause = 2
						}
					}
					iqFree := iqSizeF - iqH0 - iqH1
					if own := iqCap - iqH0; own < iqFree {
						iqFree = own
					}
					if iqFree < 1 {
						k = 0
						cause = 5
					} else if miss0 > 0 && depF0 > 0 {
						if lim := int(iqFree * invD0); lim < k {
							k = lim
							if lim <= 0 {
								k = 0
								cause = 5
							}
						}
					}
					if !ldqDead && loadR0 > 0 && k > 0 {
						ldqFree := ldqSizeF - ldq0 - ldq1
						if own := ldqCap - ldq0; own < ldqFree {
							ldqFree = own
						}
						if lim := int(ldqFree * invL0); lim < k {
							k = lim
							if lim <= 0 {
								k = 0
								cause = 3
							}
						}
					}
					if !stqDead && storeR0 > 0 && k > 0 {
						stqFree := stqSizeF - stq0 - stq1
						if own := stqCap - stq0; own < stqFree {
							stqFree = own
						}
						if lim := int(stqFree * invS0); lim < k {
							k = lim
							if lim <= 0 {
								k = 0
								cause = 4
							}
						}
					}
					if k <= 0 {
						if miss0 > 0 {
							cnt0.memLatCnt++
							t0.robHeld, t0.iqHeld, t0.ldqHeld, t0.stqHeld = rob0, iqH0, ldq0, stq0
							t0.missLeft = miss0
							if c.dispatchBlockedOwn(t0) {
								frozen0 = true
							}
						} else {
							cnt0.countStall(cause)
						}
					} else {
						dispatched = true
						slots -= k
						rob0 += k
						if miss0 > 0 {
							iqH0 += depF0 * float64(k)
						}
						if !ldqDead {
							ldq0 += loadR0 * float64(k)
						}
						if !stqDead {
							stq0 += storeR0 * float64(k)
						}
						cnt0.spec += uint64(k)
						specPend0 += uint64(k)
						win0 -= k
						if pb0 -= int64(k); pb0 <= 0 {
							crossed = true
						}
						if win0 == 0 {
							t0.robHeld, t0.iqHeld, t0.ldqHeld, t0.stqHeld = rob0, iqH0, ldq0, stq0
							t0.missLeft, t0.feLeft, t0.window = miss0, 0, 0
							t0.fireEvent()
							rob0, iqH0, ldq0, stq0 = t0.robHeld, t0.iqHeld, t0.ldqHeld, t0.stqHeld
							miss0, fe0, kind0, win0 = t0.missLeft, t0.feLeft, t0.feKind, t0.window
						}
					}
				}
			}
		}

		// --- end of cycle -------------------------------------------------
		if crossed {
			// A phase boundary was crossed this cycle: advance the pending
			// dispatched counts (AdvanceDispatched is chunk-associative, so
			// the deferred advance equals step()'s per-dispatch advances)
			// and refresh the contention rates exactly where step() does —
			// at the end of the crossing cycle.
			crossed = false
			if specPend0 > 0 {
				t0.inst.AdvanceDispatched(specPend0)
				specPend0 = 0
			}
			if specPend1 > 0 {
				t1.inst.AdvanceDispatched(specPend1)
				specPend1 = 0
			}
			c.refreshRates()
			if active0 {
				base0, frac0 = t0.ilpBase, t0.ilpFrac
				loadR0, storeR0, depF0 = t0.loadRatio, t0.storeRatio, t0.depFrac
				invD0, invL0, invS0 = t0.invDepFrac, t0.invLoadRatio, t0.invStoreRatio
				pb0 = int64(t0.inst.InstsToPhaseBoundary())
			}
			if active1 {
				base1, frac1 = t1.ilpBase, t1.ilpFrac
				loadR1, storeR1, depF1 = t1.loadRatio, t1.storeRatio, t1.depFrac
				invD1, invL1, invS1 = t1.invDepFrac, t1.invLoadRatio, t1.invStoreRatio
				pb1 = int64(t1.inst.InstsToPhaseBoundary())
			}
		}
		if dispatched {
			stallStreak = 0
			continue
		}
		// No dispatch this cycle: on full dormancy (every active thread
		// frozen on a miss or frontend-starved) or a short streak of
		// contention-stalled cycles, let Tier 1 skip what it can of the
		// rest of the span.
		if (active0 && !frozen0 && fe0 <= 0) || (active1 && !frozen1 && fe1 <= 0) {
			if stallStreak++; stallStreak < maxStallStreak {
				continue
			}
		}
		stallStreak = 0
		if i == n {
			break
		}
		if active0 {
			t0.robHeld, t0.feLeft, t0.missLeft = rob0, fe0, miss0
			t0.iqHeld, t0.ldqHeld, t0.stqHeld = iqH0, ldq0, stq0
			t0.ilpAcc = acc0
		}
		if active1 {
			t1.robHeld, t1.feLeft, t1.missLeft = rob1, fe1, miss1
			t1.iqHeld, t1.ldqHeld, t1.stqHeld = iqH1, ldq1, stq1
			t1.ilpAcc = acc1
		}
		c.prio = 0
		if runOdd {
			c.prio = 1
		}
		if skipped := c.skipDormant(n - i); skipped > 0 {
			n -= skipped
			runOdd = c.prio == 1
			if active0 {
				rob0, fe0, miss0, acc0 = t0.robHeld, t0.feLeft, t0.missLeft, t0.ilpAcc
				ldq0, stq0 = t0.ldqHeld, t0.stqHeld
			}
			if active1 {
				rob1, fe1, miss1, acc1 = t1.robHeld, t1.feLeft, t1.missLeft, t1.ilpAcc
				ldq1, stq1 = t1.ldqHeld, t1.stqHeld
			}
		}
	}

	// --- flush --------------------------------------------------------------
	c.cycle += i
	c.prio = 0
	if runOdd {
		c.prio = 1
	}
	if active0 {
		t0.robHeld, t0.window, t0.feLeft, t0.missLeft = rob0, win0, fe0, miss0
		t0.iqHeld, t0.ldqHeld, t0.stqHeld = iqH0, ldq0, stq0
		t0.ilpAcc = acc0
		flushLite(t0, i, &cnt0, specPend0)
	}
	if active1 {
		t1.robHeld, t1.window, t1.feLeft, t1.missLeft = rob1, win1, fe1, miss1
		t1.iqHeld, t1.ldqHeld, t1.stqHeld = iqH1, ldq1, stq1
		t1.ilpAcc = acc1
		flushLite(t1, i, &cnt1, specPend1)
	}
	c.engine.SpanCycles += i
}

// countStall records one zero-dispatch cycle with step()'s cause
// attribution (1 slots, 2 ROB, 3 LDQ, 4 STQ, 5 IQ, else other).
func (cnt *liteCounters) countStall(cause int) {
	switch cause {
	case 1:
		cnt.slotsCnt++
	case 2:
		cnt.robCnt++
	case 3:
		cnt.ldqCnt++
	case 4:
		cnt.stqCnt++
	case 5:
		cnt.iqCnt++
	default:
		cnt.otherCnt++
	}
}

// flushLite writes one thread's counters accumulated over an n-cycle span
// to its bank and instance. Only the still-pending dispatched count — the
// tail since the last inline phase sync — feeds AdvanceDispatched.
func flushLite(t *thread, n uint64, cnt *liteCounters, pending uint64) {
	b := t.bank
	b.Add(pmu.CPUCycles, n)
	if cnt.spec > 0 {
		b.Add(pmu.InstSpec, cnt.spec)
	}
	if cnt.ret > 0 {
		b.Add(pmu.InstRetired, cnt.ret)
		t.inst.Retired += cnt.ret
	}
	if fe := cnt.feICnt + cnt.feBCnt; fe > 0 {
		b.Add(pmu.StallFrontend, fe)
		if cnt.feICnt > 0 {
			b.Add(pmu.StallFEICache, cnt.feICnt)
		}
		if cnt.feBCnt > 0 {
			b.Add(pmu.StallFEBranch, cnt.feBCnt)
		}
	}
	if be := cnt.slotsCnt + cnt.robCnt + cnt.ldqCnt + cnt.stqCnt +
		cnt.iqCnt + cnt.otherCnt + cnt.memLatCnt; be > 0 {
		b.Add(pmu.StallBackend, be)
		if cnt.memLatCnt > 0 {
			b.Add(pmu.StallBEMemLat, cnt.memLatCnt)
		}
		if cnt.slotsCnt > 0 {
			b.Add(pmu.StallBESlots, cnt.slotsCnt)
		}
		if cnt.robCnt > 0 {
			b.Add(pmu.StallBEROB, cnt.robCnt)
		}
		if cnt.iqCnt > 0 {
			b.Add(pmu.StallBEIQ, cnt.iqCnt)
		}
		if cnt.ldqCnt > 0 {
			b.Add(pmu.StallBELDQ, cnt.ldqCnt)
		}
		if cnt.stqCnt > 0 {
			b.Add(pmu.StallBESTQ, cnt.stqCnt)
		}
	}
	if pending > 0 {
		t.inst.AdvanceDispatched(pending)
	}
}
