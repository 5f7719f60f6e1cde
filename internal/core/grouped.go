package core

// The grouped allocation path: SYNPA's Step 3 for SMT levels above 2, where
// the per-quantum pair selection becomes the weighted set-partition problem
// of the paper's follow-up ("A New Family of Thread to Core Allocation
// Policies for an SMT ARM Processor", arXiv:2507.00855). The pairwise
// interference model keeps driving the decision: a candidate group's cost
// is the sum of its members' pairwise predicted degradations, and
// internal/grouping minimises the total over all core groups. At SMT2 the
// subsystem delegates to the same blossom matcher as the classic path, so
// ForceGrouping reproduces the pairwise placements exactly (differential
// test in grouped_test.go).

import (
	"math"

	"synpa/internal/grouping"
	"synpa/internal/machine"
	"synpa/internal/perfstat"
)

// placeGrouped is PlaceR for machines running level (> 2, or 2 under
// ForceGrouping) hardware threads per core; all scratch comes from the
// caller's arena.
func (p *Policy) placeGrouped(a *Arena, st *machine.QuantumState, level int) machine.Placement {
	if st.Samples == nil || st.Prev == nil {
		return arrivalOrderPlacement(st.NumApps, st.NumCores)
	}
	n := st.NumApps

	// Step 1: estimate each application's ST category vector by inverting
	// the model against its co-runner set. The set is summarised by the
	// mean co-runner fraction vector — the pairwise model's first-order
	// aggregate, which with a single co-runner reduces to the exact
	// pairwise inversion of the classic path. The estimate matrix is
	// double-buffered and inversions are memoized, exactly as in the
	// pairwise path.
	groups := st.Prev.PairsOf(st.NumCores)
	if cap(a.frac) < n {
		a.frac = make([][]float64, n)
	}
	frac := a.frac[:n]
	for i := 0; i < n; i++ {
		frac[i] = p.opt.Extract(st.Samples[i], st.DispatchWidth)
	}
	est := a.newEstMatrix(n, p.model.K())
	if cap(a.filled) < n {
		a.filled = make([]bool, n)
	}
	filled := a.filled[:n]
	for i := range filled {
		filled[i] = false
	}
	if !p.opt.DisableInversion {
		for _, g := range groups {
			for _, i := range g {
				var mean []float64
				others := 0
				for _, j := range g {
					if j == i {
						continue
					}
					if mean == nil {
						if cap(a.meanBuf) < len(frac[j]) {
							a.meanBuf = make([]float64, len(frac[j]))
						}
						mean = a.meanBuf[:len(frac[j])]
						for k := range mean {
							mean[k] = 0
						}
					}
					for k := range frac[j] {
						mean[k] += frac[j][k]
					}
					others++
				}
				if others == 0 {
					continue // solo: handled below, measurements are ST already
				}
				if others > 1 {
					for k := range mean {
						mean[k] /= float64(others)
					}
				}
				ci, _, _ := a.memo.Invert(frac[i], mean, p.invertFn)
				copy(est[i], ci)
				filled[i] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		if !filled[i] {
			// Running alone (its measurements are ST already), not in any
			// Prev group, or the inversion ablation is active.
			copy(est[i], frac[i])
			normalize(est[i])
		}
	}
	p.smoothAndRemember(a, st, est)

	// Step 2: the pairwise degradation matrix over the live applications,
	// reused across quanta with memoized predictions.
	w := a.wMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cost := a.memo.Pair(est[i], est[j], p.pairFn)
			if math.IsNaN(cost) || math.IsInf(cost, 0) {
				cost = 1e6
			}
			w[i][j], w[j][i] = cost, cost
		}
	}

	// Step 3: minimum-cost partition into at most NumCores groups of at
	// most level members.
	t0 := perfstat.PhaseClock()
	res, err := grouping.Partition(w, st.NumCores, level, p.opt.Grouping)
	perfstat.PhaseAdd(perfstat.PhaseMatching, t0)
	if err != nil {
		// Partitioning cannot fail on a validated live set; if it somehow
		// does, keep the previous placement rather than crash the manager
		// (only if every app already has a core — under dynamic occupancy
		// a fresh arrival does not).
		if fullyPlaced(st.Prev, st.NumCores) {
			return st.Prev.Clone()
		}
		return arrivalOrderPlacement(n, st.NumCores)
	}

	// Hysteresis over groups: only migrate when the predicted gain is
	// material, evaluating the previous grouping under the same matrix and
	// the same solo-cost scale Partition priced the new one with.
	if p.opt.Hysteresis > 0 && fullyPlaced(st.Prev, st.NumCores) {
		prevCost := grouping.PartitionCost(w, groups, p.opt.Grouping.ResolvedSoloCost())
		if prevCost-res.Cost < p.opt.Hysteresis*prevCost {
			return st.Prev.Clone()
		}
	}

	return placeGroups(res.Groups, n, st.NumCores, st.Prev)
}

// placeGroups maps solved groups onto cores, preferring each group's
// previous core to minimise migrations (a group that stays put keeps its
// pipeline state). It is placePairs generalised to arbitrary group sizes.
func placeGroups(groups [][]int, numApps, numCores int, prev machine.Placement) machine.Placement {
	place := make(machine.Placement, numApps)
	for i := range place {
		place[i] = -1
	}
	usedCore := make([]bool, numCores)
	assigned := make([]bool, len(groups))

	// First pass: groups that can stay on a previous core of one member.
	for gi, g := range groups {
		for _, member := range g {
			if member < 0 || member >= len(prev) {
				continue
			}
			c := prev[member]
			if c >= 0 && c < numCores && !usedCore[c] {
				for _, m := range g {
					place[m] = c
				}
				usedCore[c] = true
				assigned[gi] = true
				break
			}
		}
	}
	// Second pass: remaining groups take the lowest free core.
	next := 0
	for gi, g := range groups {
		if assigned[gi] {
			continue
		}
		for next < numCores && usedCore[next] {
			next++
		}
		if next >= numCores {
			break // cannot happen: groups <= cores
		}
		for _, m := range g {
			place[m] = next
		}
		usedCore[next] = true
	}
	// Defensive: any unplaced app (impossible in normal operation) goes to
	// core 0's first free slot.
	for i := range place {
		if place[i] < 0 {
			place[i] = 0
		}
	}
	return place
}
