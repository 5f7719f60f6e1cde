package core

// Co-runner groups: the unit PlaceR's pipeline works in at every SMT level.
// Step 1 inverts the model on each core's previous group, Step 3 returns
// the new groups and placeGroups maps them onto cores. At SMT2 a group is a
// pair (or a solo app) and Step 3 is the paper's blossom matching; above
// SMT2 Step 3 becomes the weighted set-partition problem of the paper's
// follow-up ("A New Family of Thread to Core Allocation Policies for an
// SMT ARM Processor", arXiv:2507.00855), solved by internal/grouping. The
// pairwise interference model drives the decision at every level: a
// candidate group's cost is the sum of its members' pairwise predicted
// degradations.

import (
	"synpa/internal/grouping"
	"synpa/internal/machine"
	"synpa/internal/perfstat"
)

// estimate is Step 1: each application's ST category vector, inverted from
// its measured SMT fractions against its previous co-runner group. A core
// holding two applications is inverted jointly — one inversion of (lower,
// higher) fills both rows, the paper's pairwise inversion. A larger group
// inverts each member against the mean fraction vector of the others, the
// pairwise model's first-order aggregate. Solo applications keep their
// measured fractions (they are ST already), as does every application
// under the inversion ablation.
func (p *Policy) estimate(a *Arena, st *machine.QuantumState, groups [][]int) [][]float64 {
	n, k := st.NumApps, p.model.K()
	if cap(a.frac) < n {
		a.frac = make([][]float64, n)
	}
	if cap(a.fracBack) < n*k {
		a.fracBack = make([]float64, n*k)
	}
	frac := a.frac[:n]
	est := a.newEstMatrix(n, k)
	for i := range frac {
		frac[i] = p.extract(a.fracBack[i*k:(i+1)*k:(i+1)*k], st.Samples[i], st.DispatchWidth)
		copy(est[i], frac[i]) // the inversions below overwrite co-running apps' rows
		normalize(est[i])
	}
	if p.opt.DisableInversion {
		return est
	}
	for _, g := range groups {
		switch len(g) {
		case 0, 1:
			// Idle core, or a solo app.
		case 2:
			p.invert(a, frac[g[0]], frac[g[1]], est[g[0]], est[g[1]])
		default:
			if cap(a.coST) < k {
				a.coST = make([]float64, k)
			}
			for _, i := range g {
				p.invert(a, frac[i], a.coRunnerMean(frac, g, i), est[i], a.coST[:k])
			}
		}
	}
	return est
}

// invert writes the ST vectors inverted from fractions fi and fj into rows
// ci and cj: straight from the Newton solve, or copied from the shared
// memo when the policy has one.
func (p *Policy) invert(a *Arena, fi, fj, ci, cj []float64) {
	if a.memo == nil {
		p.model.InvertInto(fi, fj, ci, cj, DefaultInversion())
		a.inverted++
		return
	}
	ri, rj, _ := a.memo.Invert(fi, fj, p.invertFn)
	copy(ci, ri)
	copy(cj, rj)
}

// coRunnerMean returns the mean fraction vector of group g's members other
// than i, in the arena's reusable buffer.
func (a *Arena) coRunnerMean(frac [][]float64, g []int, i int) []float64 {
	k := len(frac[i])
	if cap(a.meanBuf) < k {
		a.meanBuf = make([]float64, k)
	}
	mean := a.meanBuf[:k]
	for c := range mean {
		mean[c] = 0
	}
	for _, j := range g {
		if j == i {
			continue
		}
		for c := range frac[j] {
			mean[c] += frac[j][c]
		}
	}
	for c := range mean {
		mean[c] /= float64(len(g) - 1)
	}
	return mean
}

// group is Step 3: the minimum-cost co-runner groups over the weight matrix
// w, in canonical order (members ascending, groups by smallest member),
// with their cost under grouping.PartitionCost. At SMT2 it runs the
// configured matcher on the idle-padded graph; at every other
// level it runs grouping.Partition through the arena's workspace.
func (p *Policy) group(a *Arena, w [][]float64, n, numCores, level int) ([][]int, float64, error) {
	if level != 2 {
		t0 := perfstat.PhaseClock()
		res, err := a.gws.Partition(w, numCores, level, grouping.Options{})
		perfstat.PhaseAdd(perfstat.PhaseMatching, t0)
		if err != nil {
			return nil, 0, err
		}
		return res.Groups, res.Cost, nil
	}
	mate, err := p.match(a, w, n)
	if err != nil {
		return nil, 0, err
	}
	groups := a.matchedGroups(mate, n)
	return groups, grouping.PartitionCost(w, groups, grouping.DefaultSoloCost), nil
}

// matchedGroups turns a matching on the idle-padded graph into canonical
// groups over the n real applications: {i, m} for a real pair, {i} for an
// application matched to an idle slot. The groups slice arena scratch.
func (a *Arena) matchedGroups(mate []int, n int) [][]int {
	if cap(a.matchBack) < n {
		a.matchBack = make([]int, 0, n)
	}
	back, rows := a.matchBack[:0], a.matchRows[:0]
	for i := 0; i < n && i < len(mate); i++ {
		start := len(back)
		switch m := mate[i]; {
		case m < 0 || m >= n:
			back = append(back, i)
		case m > i:
			back = append(back, i, m)
		default:
			continue // the pair is listed at its lower member
		}
		rows = append(rows, back[start:len(back):len(back)])
	}
	a.matchRows = rows
	return rows
}

// placeGroups maps solved groups onto cores, preferring each group's
// previous core to minimise migrations (a group that stays put keeps its
// pipeline state). The returned placement is fresh, for the caller to
// keep; the core-occupancy scratch is the arena's.
func (a *Arena) placeGroups(groups [][]int, numApps, numCores int, prev machine.Placement) machine.Placement {
	place := make(machine.Placement, numApps)
	for i := range place {
		place[i] = -1
	}
	if cap(a.usedCore) < numCores {
		a.usedCore = make([]bool, numCores)
	}
	usedCore := a.usedCore[:numCores]
	clear(usedCore)

	// First pass: groups that can stay on a previous core of one member.
	for _, g := range groups {
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
				break
			}
		}
	}
	// Second pass: remaining groups take the lowest free core.
	next := 0
	for _, g := range groups {
		if len(g) == 0 || place[g[0]] >= 0 {
			continue // empty, or kept its previous core
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
