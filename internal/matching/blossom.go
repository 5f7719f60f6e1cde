// Package matching implements weighted matching on general graphs.
//
// SYNPA (paper §IV-B, Step 3) must pick, every quantum, the set of
// application pairs that minimises the total predicted SMT degradation. With
// 2k applications on k SMT2 cores this is exactly minimum-weight perfect
// matching on the complete graph whose edge weights are the pairwise
// predicted slowdown sums. The paper solves it with Edmonds' Blossom
// algorithm [21]; so does this package.
//
// Vertex counts must be even: a perfect matching cannot exist otherwise,
// and MinWeightPerfectMatching returns ErrOddVertices. SYNPA's graph is
// always even, whatever the number of live applications: the policy pads
// it with idle slots to 2·NumCores vertices (see below).
//
// The core is an O(n³) maximum-weight general matching with dual variables
// and blossom shrinking (the classic primal-dual formulation of Edmonds'
// algorithm). Minimum-weight perfect matching is obtained by the usual
// complement transform: on a complete graph whose transformed weights are all
// strictly positive, every maximum-weight matching is perfect, and
// maximising Σ(W−w) minimises Σw over perfect matchings.
//
// SYNPA's Step 3 graph is idle-padded: its first n vertices are
// applications, the rest interchangeable idle slots, so a matching is a
// grouping of the applications into pairs and solos. On that graph the
// policy calls MinWeightPaddedMatching, which first runs an exact subset
// dynamic program over the same integer weights blossom uses, with each
// application matched to the lowest free idle slot. Up to ten vertices
// (four or five SMT2 cores) the DP is several times faster than blossom.
// Its tie rule keeps outputs bit-identical: it answers only when the
// optimum grouping is unique, which blossom, being exact, must then return
// too; on a tie, a larger graph or a malformed matrix it defers to blossom.
//
// BruteForceMinWeightPerfect, a subset dynamic program over plain float
// weights (O(2ⁿ·n)), is the cross-validation oracle of the tests and the
// exhaustive baseline of the matcher ablation. Above SMT2, where
// co-schedules grow beyond pairs, the matching step generalises to the
// weighted set-partition problem of internal/grouping, whose tests check
// its level-2 answers against MinWeightPaddedMatching.
package matching

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Errors returned by the matchers.
var (
	// ErrOddVertices is returned for an odd vertex count, which no perfect
	// matching covers.
	ErrOddVertices  = errors.New("matching: perfect matching requires an even vertex count")
	ErrNotSquare    = errors.New("matching: weight matrix must be square")
	ErrNotSymmetric = errors.New("matching: weight matrix must be symmetric")
	ErrBadWeight    = errors.New("matching: weights must be finite")
	// ErrTooLarge is returned by BruteForceMinWeightPerfect for graphs
	// whose subset tables would not fit in memory.
	ErrTooLarge = fmt.Errorf("matching: brute force limited to %d vertices", maxBruteForceVertices)
)

// weightScale converts float64 edge weights into the integer domain the
// primal-dual algorithm requires for exact zero-slack tests. Slowdown sums
// are O(1..10); six decimal digits of resolution is far below any
// behavioural difference the simulator can produce.
const weightScale = 1e6

type edge struct {
	u, v int
	w    int64
}

// blossomSolver carries the state of one maximum-weight matching run.
// Vertices are 1-indexed; ids above n denote contracted blossoms.
type blossomSolver struct {
	n, nx int // original vertex count; current max node id (incl. blossoms)
	capN  int // vertex capacity the arrays were allocated for (capN >= n)

	g          [][]edge // g[u][v]: best edge between (super)nodes u and v
	lab        []int64  // dual variables
	match      []int    // matched original-vertex id (0 = unmatched)
	slack      []int
	st         []int // st[x]: the (super)node currently containing x
	pa         []int // tree parent edge endpoint
	flowerFrom [][]int
	flower     [][]int
	s          []int // node label: -1 unvisited, 0 even, 1 odd
	vis        []int
	visTime    int
	queue      []int
}

const infWeight = int64(math.MaxInt64 / 4)

// newSolverAlloc allocates a solver sized for up to capN vertices without
// initialising the per-run state; init must run before every matching.
func newSolverAlloc(capN int) *blossomSolver {
	size := 2*capN + 8
	// A workspace allocates a solver whenever the pool has none large
	// enough, so the vectors and matrices share backing arrays: seven
	// allocations in all.
	ints := make([]int, 6*size+size*(capN+1))
	vec := func() []int {
		v := ints[:size:size]
		ints = ints[size:]
		return v
	}
	b := &blossomSolver{
		capN:       capN,
		g:          make([][]edge, size),
		lab:        make([]int64, size),
		match:      vec(),
		slack:      vec(),
		st:         vec(),
		pa:         vec(),
		flowerFrom: make([][]int, size),
		flower:     make([][]int, size),
		s:          vec(),
		vis:        vec(),
	}
	gBack := make([]edge, size*size)
	for i := range b.g {
		b.g[i] = gBack[i*size : (i+1)*size : (i+1)*size]
		b.flowerFrom[i] = ints[i*(capN+1) : (i+1)*(capN+1) : (i+1)*(capN+1)]
	}
	return b
}

// init resets the solver to the exact state a freshly allocated one has
// for an n-vertex run — bit-identical reuse: only the logical 2n+8 region
// the algorithm can touch is (re)initialised, so a recycled solver is
// indistinguishable from a new one.
func (b *blossomSolver) init(n int, w [][]int64) {
	b.n, b.nx = n, n
	b.visTime = 0
	b.queue = b.queue[:0]
	size := 2*n + 8
	for i := 0; i < size; i++ {
		b.lab[i] = 0
		b.match[i] = 0
		b.slack[i] = 0
		b.st[i] = 0
		b.pa[i] = 0
		b.s[i] = 0
		b.vis[i] = 0
		b.flower[i] = b.flower[i][:0]
		g := b.g[i][:size]
		for j := range g {
			g[j] = edge{u: i, v: j, w: 0}
		}
		ff := b.flowerFrom[i][:n+1]
		for j := range ff {
			ff[j] = 0
		}
	}
	var wMax int64
	for u := 1; u <= n; u++ {
		b.st[u] = u
		for v := 1; v <= n; v++ {
			if u == v {
				b.flowerFrom[u][v] = u
				continue
			}
			b.g[u][v].w = w[u-1][v-1]
			if b.g[u][v].w > wMax {
				wMax = b.g[u][v].w
			}
		}
	}
	for u := 1; u <= n; u++ {
		b.lab[u] = wMax
	}
}

func newBlossomSolver(n int, w [][]int64) *blossomSolver {
	b := newSolverAlloc(n)
	b.init(n, w)
	return b
}

// eDelta is the reduced cost (slack) of edge e: lab[u]+lab[v]−2w.
// Weights are implicitly doubled so that all dual updates stay integral.
func (b *blossomSolver) eDelta(e edge) int64 {
	return b.lab[e.u] + b.lab[e.v] - 2*e.w
}

func (b *blossomSolver) updateSlack(u, x int) {
	if b.slack[x] == 0 || b.eDelta(b.g[u][x]) < b.eDelta(b.g[b.slack[x]][x]) {
		b.slack[x] = u
	}
}

func (b *blossomSolver) setSlack(x int) {
	b.slack[x] = 0
	for u := 1; u <= b.n; u++ {
		if b.g[u][x].w > 0 && b.st[u] != x && b.s[b.st[u]] == 0 {
			b.updateSlack(u, x)
		}
	}
}

func (b *blossomSolver) qPush(x int) {
	if x <= b.n {
		b.queue = append(b.queue, x)
		return
	}
	for _, t := range b.flower[x] {
		b.qPush(t)
	}
}

func (b *blossomSolver) setSt(x, v int) {
	b.st[x] = v
	if x > b.n {
		for _, t := range b.flower[x] {
			b.setSt(t, v)
		}
	}
}

// getPr locates xr inside blossom bl and, if it sits at an odd position,
// reverses the cyclic order so the even-length alternating path is used.
func (b *blossomSolver) getPr(bl, xr int) int {
	pr := 0
	for i, t := range b.flower[bl] {
		if t == xr {
			pr = i
			break
		}
	}
	if pr%2 == 1 {
		// Reverse flower[bl][1:] to flip traversal direction.
		fl := b.flower[bl]
		for i, j := 1, len(fl)-1; i < j; i, j = i+1, j-1 {
			fl[i], fl[j] = fl[j], fl[i]
		}
		return len(fl) - pr
	}
	return pr
}

func (b *blossomSolver) setMatch(u, v int) {
	b.match[u] = b.g[u][v].v
	if u <= b.n {
		return
	}
	e := b.g[u][v]
	xr := b.flowerFrom[u][e.u]
	pr := b.getPr(u, xr)
	for i := 0; i < pr; i++ {
		b.setMatch(b.flower[u][i], b.flower[u][i^1])
	}
	b.setMatch(xr, v)
	// Rotate so xr becomes the blossom base.
	fl := b.flower[u]
	b.flower[u] = append(append([]int{}, fl[pr:]...), fl[:pr]...)
}

func (b *blossomSolver) augment(u, v int) {
	for {
		xnv := b.st[b.match[u]]
		b.setMatch(u, v)
		if xnv == 0 {
			return
		}
		b.setMatch(xnv, b.st[b.pa[xnv]])
		u, v = b.st[b.pa[xnv]], xnv
	}
}

func (b *blossomSolver) getLCA(u, v int) int {
	b.visTime++
	t := b.visTime
	for u != 0 || v != 0 {
		if u != 0 {
			if b.vis[u] == t {
				return u
			}
			b.vis[u] = t
			u = b.st[b.match[u]]
			if u != 0 {
				u = b.st[b.pa[u]]
			}
		}
		u, v = v, u
	}
	return 0
}

func (b *blossomSolver) addBlossom(u, lca, v int) {
	bl := b.n + 1
	for bl <= b.nx && b.st[bl] != 0 {
		bl++
	}
	if bl > b.nx {
		b.nx++
	}
	// Bound on the logical 2n+8 region, not the allocation: a solver
	// recycled from a larger run has longer arrays, but the id space the
	// algorithm is allowed to use must not depend on allocation history.
	if b.nx >= 2*b.n+8 {
		panic(fmt.Sprintf("matching: blossom id overflow (n=%d)", b.n))
	}
	b.lab[bl] = 0
	b.s[bl] = 0
	b.match[bl] = b.match[lca]
	b.flower[bl] = b.flower[bl][:0]
	b.flower[bl] = append(b.flower[bl], lca)
	for x := u; x != lca; {
		b.flower[bl] = append(b.flower[bl], x)
		y := b.st[b.match[x]]
		b.flower[bl] = append(b.flower[bl], y)
		b.qPush(y)
		x = b.st[b.pa[y]]
	}
	// Reverse flower[bl][1:].
	fl := b.flower[bl]
	for i, j := 1, len(fl)-1; i < j; i, j = i+1, j-1 {
		fl[i], fl[j] = fl[j], fl[i]
	}
	for x := v; x != lca; {
		b.flower[bl] = append(b.flower[bl], x)
		y := b.st[b.match[x]]
		b.flower[bl] = append(b.flower[bl], y)
		b.qPush(y)
		x = b.st[b.pa[y]]
	}
	b.setSt(bl, bl)
	for x := 1; x <= b.nx; x++ {
		b.g[bl][x].w = 0
		b.g[x][bl].w = 0
	}
	for x := 1; x <= b.n; x++ {
		b.flowerFrom[bl][x] = 0
	}
	for _, xs := range b.flower[bl] {
		for x := 1; x <= b.nx; x++ {
			if b.g[bl][x].w == 0 || b.eDelta(b.g[xs][x]) < b.eDelta(b.g[bl][x]) {
				b.g[bl][x] = b.g[xs][x]
				b.g[x][bl] = b.g[x][xs]
			}
		}
		for x := 1; x <= b.n; x++ {
			if b.flowerFrom[xs][x] != 0 {
				b.flowerFrom[bl][x] = xs
			}
		}
	}
	b.setSlack(bl)
}

func (b *blossomSolver) expandBlossom(bl int) {
	for _, t := range b.flower[bl] {
		b.setSt(t, t)
	}
	xr := b.flowerFrom[bl][b.g[bl][b.pa[bl]].u]
	pr := b.getPr(bl, xr)
	for i := 0; i < pr; i += 2 {
		xs := b.flower[bl][i]
		xns := b.flower[bl][i+1]
		b.pa[xs] = b.g[xns][xs].u
		b.s[xs] = 1
		b.s[xns] = 0
		b.slack[xs] = 0
		b.setSlack(xns)
		b.qPush(xns)
	}
	b.s[xr] = 1
	b.pa[xr] = b.pa[bl]
	for i := pr + 1; i < len(b.flower[bl]); i++ {
		xs := b.flower[bl][i]
		b.s[xs] = -1
		b.setSlack(xs)
	}
	b.st[bl] = 0
}

// onFoundEdge processes a tight edge discovered during the search. It
// returns true when an augmenting path was found and applied.
func (b *blossomSolver) onFoundEdge(e edge) bool {
	u := b.st[e.u]
	v := b.st[e.v]
	switch b.s[v] {
	case -1:
		b.pa[v] = e.u
		b.s[v] = 1
		nu := b.st[b.match[v]]
		b.slack[v] = 0
		b.slack[nu] = 0
		b.s[nu] = 0
		b.qPush(nu)
	case 0:
		lca := b.getLCA(u, v)
		if lca == 0 {
			b.augment(u, v)
			b.augment(v, u)
			return true
		}
		b.addBlossom(u, lca, v)
	}
	return false
}

// matchingRound grows alternating trees from all free (super)nodes and
// either augments the matching (returns true) or proves no augmenting path
// of positive gain exists (returns false).
func (b *blossomSolver) matchingRound() bool {
	for i := 1; i <= b.nx; i++ {
		b.s[i] = -1
		b.slack[i] = 0
	}
	b.queue = b.queue[:0]
	for x := 1; x <= b.nx; x++ {
		if b.st[x] == x && b.match[x] == 0 {
			b.pa[x] = 0
			b.s[x] = 0
			b.qPush(x)
		}
	}
	if len(b.queue) == 0 {
		return false
	}
	for {
		for len(b.queue) > 0 {
			u := b.queue[0]
			b.queue = b.queue[1:]
			if b.s[b.st[u]] == 1 {
				continue
			}
			for v := 1; v <= b.n; v++ {
				if b.g[u][v].w > 0 && b.st[u] != b.st[v] {
					if b.eDelta(b.g[u][v]) == 0 {
						if b.onFoundEdge(b.g[u][v]) {
							return true
						}
					} else {
						b.updateSlack(u, b.st[v])
					}
				}
			}
		}
		// Dual adjustment.
		d := infWeight
		for bl := b.n + 1; bl <= b.nx; bl++ {
			if b.st[bl] == bl && b.s[bl] == 1 {
				if v := b.lab[bl] / 2; v < d {
					d = v
				}
			}
		}
		for x := 1; x <= b.nx; x++ {
			if b.st[x] == x && b.slack[x] != 0 {
				delta := b.eDelta(b.g[b.slack[x]][x])
				switch b.s[x] {
				case -1:
					if delta < d {
						d = delta
					}
				case 0:
					if v := delta / 2; v < d {
						d = v
					}
				}
			}
		}
		for u := 1; u <= b.n; u++ {
			switch b.s[b.st[u]] {
			case 0:
				if b.lab[u] <= d {
					return false // maximum weight reached
				}
				b.lab[u] -= d
			case 1:
				b.lab[u] += d
			}
		}
		for bl := b.n + 1; bl <= b.nx; bl++ {
			if b.st[bl] == bl {
				switch b.s[bl] {
				case 0:
					b.lab[bl] += 2 * d
				case 1:
					b.lab[bl] -= 2 * d
				}
			}
		}
		b.queue = b.queue[:0]
		for x := 1; x <= b.nx; x++ {
			if b.st[x] == x && b.slack[x] != 0 && b.st[b.slack[x]] != x &&
				b.eDelta(b.g[b.slack[x]][x]) == 0 {
				if b.onFoundEdge(b.g[b.slack[x]][x]) {
					return true
				}
			}
		}
		for bl := b.n + 1; bl <= b.nx; bl++ {
			if b.st[bl] == bl && b.s[bl] == 1 && b.lab[bl] == 0 {
				b.expandBlossom(bl)
			}
		}
	}
}

// Workspace holds the matchers' working memory for reuse across calls.
// The zero value is ready to use; a nil *Workspace allocates fresh memory
// per call (the behaviour of the package-level functions). A Workspace is
// not safe for concurrent use — give each goroutine its own.
//
// Reuse is bit-identical: the solver's init resets every cell the
// algorithm can touch, and the subset DP writes every table cell before
// reading it, so the matching computed through a recycled workspace is
// exactly the matching a fresh allocation computes. Only the allocation
// count changes. The DP's 2ⁿ-cell tables and the integer-weight scratch
// are the workspace's own and grow to the largest graph it has seen. The
// blossom solver's O(n²) edge matrix is not kept: the padded matcher
// defers to blossom only on ties and large graphs, so a workspace borrows
// a solver from a package-level pool for one matching and returns it.
type Workspace struct {
	iw     [][]int64    // integer-weight scratch for the complement transform
	iwBack []int64      // backing array of iw
	dp     paddedTables // MinWeightPaddedMatching's subset-DP tables
}

// solvers holds blossom solvers between workspace matchings. Any pooled
// solver of capacity n or more serves an n-vertex run: init resets it to
// the state a fresh one has.
var solvers sync.Pool

// solver returns an initialised solver for an n-vertex run: a fresh one for
// a nil workspace, otherwise one borrowed from solvers, which
// maxWeightMatching returns once the matching is read out.
func (ws *Workspace) solver(n int, w [][]int64) *blossomSolver {
	if ws == nil {
		return newBlossomSolver(n, w)
	}
	b, _ := solvers.Get().(*blossomSolver)
	if b == nil || b.capN < n {
		b = newSolverAlloc(n)
	}
	b.init(n, w)
	return b
}

// intMatrix returns an n×n int64 scratch matrix (contents unspecified; the
// caller overwrites every off-diagonal cell, and the diagonal is never
// read by the solver).
func (ws *Workspace) intMatrix(n int) [][]int64 {
	if ws == nil {
		iw := make([][]int64, n)
		back := make([]int64, n*n)
		for i := range iw {
			iw[i] = back[i*n : (i+1)*n : (i+1)*n]
		}
		return iw
	}
	if cap(ws.iwBack) < n*n {
		ws.iwBack = make([]int64, n*n)
		ws.iw = nil
	}
	if cap(ws.iw) < n {
		ws.iw = make([][]int64, n)
	}
	iw := ws.iw[:n]
	back := ws.iwBack[:n*n]
	for i := range iw {
		iw[i] = back[i*n : (i+1)*n : (i+1)*n]
	}
	return iw
}

// maxWeightMatching computes a maximum-weight matching of the complete graph
// with positive integer weights w (0-indexed, symmetric). It returns the
// 0-indexed mate array with -1 for unmatched vertices.
func maxWeightMatching(ws *Workspace, n int, w [][]int64) []int {
	b := ws.solver(n, w)
	for b.matchingRound() {
	}
	mate := make([]int, n)
	for u := 1; u <= n; u++ {
		if b.match[u] != 0 {
			mate[u-1] = b.match[u] - 1
		} else {
			mate[u-1] = -1
		}
	}
	if ws != nil {
		solvers.Put(b)
	}
	return mate
}

// MinWeightPerfectMatching returns a perfect matching of the complete graph
// on len(w) vertices minimising the total edge weight, together with that
// total. w must be square and symmetric with finite values; the diagonal is
// ignored. mate[i] is the partner of vertex i.
//
// This is the exact optimisation SYNPA performs every quantum over the
// pairwise predicted-degradation matrix.
func MinWeightPerfectMatching(w [][]float64) (mate []int, total float64, err error) {
	return (*Workspace)(nil).MinWeightPerfectMatching(w)
}

// MinWeightPerfectMatching is the workspace-reusing form of the
// package-level function: identical matchings, no per-call solver
// allocation once the workspace has warmed to the largest vertex count.
func (ws *Workspace) MinWeightPerfectMatching(w [][]float64) (mate []int, total float64, err error) {
	n := len(w)
	if n == 0 {
		return nil, 0, nil
	}
	if n%2 != 0 {
		return nil, 0, ErrOddVertices
	}
	var wMin, wMax float64 = math.Inf(1), math.Inf(-1)
	for i := range w {
		if len(w[i]) != n {
			return nil, 0, ErrNotSquare
		}
		for j := range w[i] {
			if i == j {
				continue
			}
			v := w[i][j]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, 0, ErrBadWeight
			}
			if math.Abs(v-w[j][i]) > 1e-9*(1+math.Abs(v)) {
				return nil, 0, ErrNotSymmetric
			}
			if v < wMin {
				wMin = v
			}
			if v > wMax {
				wMax = v
			}
		}
	}

	// Complement transform to strictly positive integer weights:
	// w' = round((wMax - w)·scale) + 1  ≥ 1.
	iw := ws.intMatrix(n)
	for i := range iw {
		for j := range iw[i] {
			if i == j {
				continue
			}
			iw[i][j] = int64(math.Round((wMax-w[i][j])*weightScale)) + 1
		}
	}

	mate = maxWeightMatching(ws, n, iw)
	for i, m := range mate {
		if m < 0 || mate[m] != i {
			return nil, 0, fmt.Errorf("matching: internal error, vertex %d left unmatched", i)
		}
		if i < m {
			total += w[i][m]
		}
	}
	return mate, total, nil
}
