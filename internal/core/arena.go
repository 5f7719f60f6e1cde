package core

// The reentrant policy path. A trained Policy is read-mostly after
// construction: the model, the resolved options and the memo closure never
// change. Everything that *does* mutate during a placement decision — the
// estimate double buffer, the weight matrix, the smoothing history, the
// grouping scratch and the memo handle — lives in an Arena, so one policy
// can serve many concurrent PlaceR calls share-nothing: each request (or
// serving goroutine) carries its own Arena, while the model and an optional
// predcache.Shared are shared read-mostly underneath.
//
// The classic machine.Policy surface is unchanged: Place delegates to
// PlaceR on a default arena owned by the policy, so single-threaded
// callers (every simulator engine) see bit-identical behaviour and the
// same CacheStats they always had.

import (
	"synpa/internal/grouping"
	"synpa/internal/matching"
	"synpa/internal/predcache"
)

// Arena is the per-request mutable state of one placement stream: scratch
// matrices, the cross-quantum smoothing history, and this stream's handle
// onto the policy's inversion memo, if one is installed. An Arena is NOT
// safe for concurrent use — the concurrency model is one arena per
// goroutine, many arenas per policy. Build one with Policy.NewArena.
//
// The smoothing history (lastST, lastIDs) is per-arena on purpose: each
// serving stream tracks the machine it is deciding for, so interleaved
// streams never blend each other's estimates.
type Arena struct {
	// lastST caches the most recent ST estimates per application for
	// smoothing, introspection and tests.
	lastST [][]float64
	// lastIDs holds the stable app identities behind lastST's rows (see
	// Policy docs: dynamic runs hand identities in AppIDs).
	lastIDs []int

	// The estimate matrices double-buffer across quanta: the fresh
	// estimates are built in the buffer lastST does not occupy, smoothed
	// against lastST, and then become lastST themselves — no per-quantum
	// matrix allocation in steady state.
	estRows [2][][]float64
	estBack [2][]float64
	estCur  int
	// wRows/wBack back the reusable pair-cost matrix. Only off-diagonal
	// entries are ever written or read, and the backing array is zeroed at
	// allocation, so the diagonal stays zero across reuses.
	wRows [][]float64
	wBack []float64
	// meanBuf is Step 1's reusable co-runner mean vector, coST the row the
	// co-runner half of a group member's inversion lands in (read by
	// nobody), and frac the per-app fraction rows the extractor writes
	// into, carved from the n×K backing array fracBack.
	meanBuf  []float64
	coST     []float64
	frac     [][]float64
	fracBack []float64
	// prevGroups holds the previous placement's per-core groups,
	// matchRows/matchBack the groups read off an SMT2 matching, and
	// usedCore placeGroups' per-core occupancy (grouped.go).
	prevGroups [][]int
	matchRows  [][]int
	matchBack  []int
	usedCore   []bool

	// mws is the SMT2 Step 3 matcher's reusable working memory: the
	// subset DP's tables, sized to the largest idle-padded graph this
	// arena has solved (2.5 KiB on a 4-core machine), and, once a tie or a
	// large graph has deferred to it, the blossom solver with its O(n²)
	// edge matrix. Recycling either is bit-identical (matching.Workspace).
	mws matching.Workspace
	// gws is the partition search's reusable working memory at every SMT
	// level but 2 (grouping.Workspace); reuse is bit-identical too.
	gws grouping.Workspace

	// memo is this arena's handle onto the policy's shared inversion
	// memo, or nil when none is installed and Step 1 inverts straight into
	// the estimate rows; inverted counts those direct inversions.
	memo     *predcache.Handle
	inverted uint64
}

// NewArena builds a fresh request arena, with a per-request handle onto
// the policy's shared cache when one is installed.
func (p *Policy) NewArena() *Arena {
	a := &Arena{}
	p.initArena(a)
	return a
}

func (p *Policy) initArena(a *Arena) {
	a.memo = nil
	if p.shared != nil {
		a.memo = p.shared.Handle()
	}
}

// CacheStats returns the arena's own inversion traffic: its handle-local
// counts when backed by a shared cache, and otherwise every inversion as a
// miss. pair is always zero.
func (a *Arena) CacheStats() (invert, pair predcache.Stats) {
	if a.memo != nil {
		return a.memo.Stats()
	}
	return predcache.Stats{Misses: a.inverted}, predcache.Stats{}
}

// LastSTEstimates returns the ST category estimates computed by this
// arena's most recent PlaceR call (one row per application, in the call's
// live-set order), or nil before any model-driven decision. The rows are
// backed by the arena's double buffer: they stay valid until the next
// PlaceR call on this arena; copy to retain longer.
func (a *Arena) LastSTEstimates() [][]float64 { return a.lastST }

// Reset clears the arena's cross-request decision history — the smoothing
// estimates and their identities — so a pooled arena serves its next
// request exactly like a freshly built one. Everything else survives on
// purpose: the scratch matrices and the solver workspaces are
// size-recycled buffers whose contents are fully overwritten per decision,
// and the memo handle's counts are traffic, not state. This is what makes
// serving-pool reuse bit-identical to one-arena-per-request.
func (a *Arena) Reset() {
	a.lastST = nil
	a.lastIDs = a.lastIDs[:0]
}

// SetSharedCache installs a shared concurrent inversion memo behind every
// arena the policy builds from now on, including the default arena behind
// Place. Install before serving traffic: the switch rewires cache handles
// only (a speed change, never a result change — the memo layer is
// bit-identical by construction). A nil cache reverts to inverting
// directly.
func (p *Policy) SetSharedCache(c *predcache.Shared) {
	p.shared = c
	p.initArena(&p.def)
}

// SharedCache returns the installed shared cache, or nil when the policy
// inverts directly. Engines use this to tell whether per-decision cache
// deltas are schedule-independent (none) or not (shared).
func (p *Policy) SharedCache() *predcache.Shared { return p.shared }

// CacheEntries returns the resident entry count of the installed shared
// cache, or 0 without one.
func (p *Policy) CacheEntries() int {
	if p.shared == nil {
		return 0
	}
	return p.shared.Entries()
}

// newEstMatrix returns an n×k estimate matrix backed by the double buffer
// lastST does not currently occupy; smoothAndRemember flips the buffers
// when the matrix becomes lastST.
func (a *Arena) newEstMatrix(n, k int) [][]float64 {
	idx := 1 - a.estCur
	if cap(a.estBack[idx]) < n*k || cap(a.estRows[idx]) < n {
		a.estBack[idx] = make([]float64, n*k)
		a.estRows[idx] = make([][]float64, n)
	}
	back := a.estBack[idx][:n*k]
	rows := a.estRows[idx][:n]
	for i := range rows {
		rows[i] = back[i*k : (i+1)*k : (i+1)*k]
	}
	a.estRows[idx] = rows
	return rows
}

// wMatrix returns the arena's reusable total×total pair-cost matrix with a
// zeroed diagonal; callers overwrite every off-diagonal entry.
func (a *Arena) wMatrix(total int) [][]float64 {
	if cap(a.wBack) < total*total || cap(a.wRows) < total {
		a.wBack = make([]float64, total*total)
		a.wRows = make([][]float64, total)
	}
	back := a.wBack[:total*total]
	rows := a.wRows[:total]
	for i := 0; i < total; i++ {
		rows[i] = back[i*total : (i+1)*total : (i+1)*total]
		rows[i][i] = 0
	}
	return rows
}

// prevEstimate finds the previous quantum's ST estimate for a stable app
// identity, or nil if the app was not estimated then. lastIDs is always
// populated alongside lastST, so the scan covers closed-system runs too
// (identity permutation); O(n) per app is immaterial at SMT2 machine sizes.
func (a *Arena) prevEstimate(id int) []float64 {
	for j, pid := range a.lastIDs {
		if pid == id && j < len(a.lastST) {
			return a.lastST[j]
		}
	}
	return nil
}
