package grouping

// The partition search: an exact depth-first enumeration of set partitions
// that answers SolverAuto and SolverExact whenever its optimum is clearly
// unique, leaving ties to the subset DP (exact.go).
//
// Apps are placed in index order. Each one joins an open group that still
// has room or opens the next group while fewer than maxGroups are open, so
// every feasible partition is one leaf, reached once, with its groups
// already in canonical order. Every partial assignment can be completed
// (there are always maxGroups·level − x free slots for the n − x apps left),
// so capacity only ever removes moves, never whole subtrees.
//
// The search carries the partial cost and skips a subtree whose lower bound
// exceeds the best leaf by more than the rounding margin. Both bounds hold
// for weights and solo costs of any sign:
//
//   - rest[x] sums, over the apps still to place, the cheapest thing each
//     can add: its solo cost, its cheapest edge to an earlier app less the
//     solo cost, or that edge times the number of earlier members it may
//     join;
//   - on a full machine (n = maxGroups·level) every group ends with exactly
//     level members, so the pair terms still to pay are a known count, and
//     each costs at least the cheapest edge from a later app to an earlier
//     one.
//
// Uniqueness. The search sums a partition's cost in another order than the
// DP, so two partitions within an ulp of each other may swap places between
// them. The search therefore answers only when the runner-up leaf is more
// than searchMargin·scale above the best, with scale = n·|solo| +
// Σ_{i<j} |w[i][j]|. Every cost the search or the DP sums is made of terms
// whose magnitudes add up to at most scale, and every lower bound to at most
// a few dozen times scale, so at n ≤ 16 each sum's rounding error stays
// below 1e-13·scale, four orders of magnitude inside the margin. A
// partition that clears the margin in the search's sums is then the unique
// optimum of the DP's sums too, and no pruned subtree hid a leaf within the
// margin: the two solvers return the same groups. finish re-prices the
// answer, so Result.Cost is bit-equal to the DP's.

import "math"

// searchMargin is the search's uniqueness margin relative to scale.
const searchMargin = 1e-9

// Workspace holds the partition search's working memory for reuse across
// Partition calls. The zero value is ready to use; a nil *Workspace
// allocates fresh memory per call (the behaviour of the package-level
// Partition). A Workspace is not safe for concurrent use — give each
// goroutine its own. Reuse is bit-identical: every cell the search reads is
// reset per call, and the Result it returns owns its memory.
type Workspace struct {
	s search
}

// search is one run of the partition search.
type search struct {
	w      [][]float64
	n      int
	level  int // at most n
	maxG   int // at most n
	solo   float64
	margin float64
	full   bool // every group must end with exactly level members

	rest  []float64 // rest[x]: lower bound on what apps x..n−1 add; rest[n] = 0
	loMin []float64 // loMin[x]: cheapest edge from an app ≥ x to an earlier one

	size   []int // size[g]: members of open group g
	mem    []int // mem[g·level+k]: the k-th member of group g
	assign []int // assign[x]: app x's group on the current path
	bestAt []int // assign of the best leaf

	open      int // groups opened on the current path
	singles   int // open groups of one member
	pairsLeft int // full machines: pair terms still to pay

	best, second float64 // the two cheapest leaves seen
}

// exact answers by the search when its optimum is clearly unique and by
// the subset DP otherwise.
func (ws *Workspace) exact(w [][]float64, maxGroups, level int, solo float64) *Result {
	s := &search{}
	if ws != nil {
		s = &ws.s
	}
	if s.run(w, maxGroups, level, solo) {
		return finish(w, s.groups(), solo, "search")
	}
	return solveExact(w, maxGroups, level, solo)
}

// run searches every feasible partition and reports whether its best leaf
// is clearly unique.
func (s *search) run(w [][]float64, maxGroups, level int, solo float64) bool {
	n := len(w)
	s.w, s.n, s.solo = w, n, solo
	s.level, s.maxG = min(level, n), min(maxGroups, n)
	s.full = s.level >= 2 && s.maxG*s.level == n

	scale := float64(n) * math.Abs(solo)
	for i := range w {
		for j := i + 1; j < n; j++ {
			scale += math.Abs(w[i][j])
		}
	}
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return false
	}
	s.margin = searchMargin * scale

	s.rest = grow(s.rest, n+1)
	s.loMin = grow(s.loMin, n+1)
	s.rest[n], s.loMin[n] = 0, math.Inf(1)
	for x := n - 1; x >= 0; x-- {
		d, lo := solo, math.Inf(1)
		if x > 0 {
			for m := 0; m < x; m++ {
				lo = min(lo, w[m][x])
			}
			d = min(d, lo-solo)
			if s.level > 2 && x > 1 {
				if lo >= 0 {
					d = min(d, 2*lo)
				} else {
					d = min(d, float64(min(s.level-1, x))*lo)
				}
			}
		}
		s.rest[x] = s.rest[x+1] + d
		s.loMin[x] = min(s.loMin[x+1], lo)
	}

	s.size = grow(s.size, s.maxG)
	s.mem = grow(s.mem, s.maxG*s.level)
	s.assign = grow(s.assign, n)
	s.bestAt = grow(s.bestAt, n)
	s.open, s.singles = 0, 0
	s.pairsLeft = s.maxG * s.level * (s.level - 1) / 2
	s.best, s.second = math.Inf(1), math.Inf(1)
	s.place(0, 0)
	s.w = nil
	return s.second > s.best+s.margin
}

// place extends the current path by app x, whose predecessors are placed
// at partial cost cost.
func (s *search) place(x int, cost float64) {
	if x == s.n {
		switch {
		case cost < s.best:
			s.best, s.second = cost, s.best
			copy(s.bestAt, s.assign)
		case cost < s.second:
			s.second = cost
		}
		return
	}
	limit := s.best + s.margin
	if cost+s.rest[x] > limit {
		return
	}
	if s.full && cost-float64(s.singles)*s.solo+float64(s.pairsLeft)*s.loMin[x] > limit {
		return
	}
	row := s.w[x]
	for g := 0; g < s.open; g++ {
		sz := s.size[g]
		if sz == s.level {
			continue
		}
		members := s.mem[g*s.level : g*s.level+sz]
		var add float64
		if sz == 1 {
			add = row[members[0]] - s.solo
			s.singles--
		} else {
			for _, m := range members {
				add += row[m]
			}
		}
		s.mem[g*s.level+sz] = x
		s.size[g] = sz + 1
		s.assign[x] = g
		s.pairsLeft -= sz
		s.place(x+1, cost+add)
		s.pairsLeft += sz
		s.size[g] = sz
		if sz == 1 {
			s.singles++
		}
	}
	if g := s.open; g < s.maxG {
		s.mem[g*s.level] = x
		s.size[g] = 1
		s.assign[x] = g
		s.open++
		s.singles++
		s.place(x+1, cost+s.solo)
		s.singles--
		s.open--
	}
}

// groups returns the best leaf's partition in canonical form: groups open
// in order of their smallest member, and members join in index order.
func (s *search) groups() [][]int {
	k := 0
	for _, g := range s.bestAt[:s.n] {
		k = max(k, g+1)
	}
	back := make([]int, 0, s.n)
	groups := make([][]int, k)
	for g := range groups {
		start := len(back)
		for x, gx := range s.bestAt[:s.n] {
			if gx == g {
				back = append(back, x)
			}
		}
		groups[g] = back[start:len(back):len(back)]
	}
	return groups
}

// grow returns buf resliced to n elements, reallocating when it is too
// short; the contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
