package matching

import (
	"math"
	"math/bits"
)

// maxPaddedVertices is the largest idle-padded graph MinWeightPaddedMatching
// solves by subset dynamic program; larger graphs go straight to blossom.
// BenchmarkPaddedMatching sets it: on a 2-CPU x86-64 host the DP ran
// 3.4–5.6× faster than blossom at 8 vertices and 2.1–3.5× at 10, but at
// 12 its 2ⁿ table made it about 15% slower than blossom on a full machine.
// At 10 vertices the tables take 10 KiB.
const maxPaddedVertices = 10

// paddedTables is the subset DP's working memory: one cell per vertex mask
// of the largest graph solved through it, 10 bytes each (2.5 KiB for the
// 8-vertex graph of a 4-core SMT2 machine, 10 KiB at maxPaddedVertices).
type paddedTables struct {
	gain []int64  // 1 + best transformed weight reaching the mask; 0 unreached
	pick []uint16 // last pair taken, packed i<<4 | j, and tiedBit
}

// tiedBit marks a mask that more than one grouping reaches at its gain.
const tiedBit = 1 << 8

// MinWeightPaddedMatching is MinWeightPerfectMatching on the idle-padded
// graph of SYNPA's Step 3: vertices 0..n−1 are applications and the
// remaining len(w)−n are idle slots, each application prices every idle
// slot alike and every idle–idle edge costs the same. Such a matching is
// one grouping of the applications into pairs and solos.
//
// Up to maxPaddedVertices vertices it first runs a subset dynamic program
// over the same complement-transformed integer weights blossom uses. An
// application matched to an idle slot always takes the lowest free one, so
// each DP path is one distinct grouping, and exact integer ties are
// tracked at every mask. The DP answers only when the optimum grouping is
// unique; blossom, being exact over those integers, would return that same
// grouping (its idle-slot numbering may differ). On a tie, a larger graph,
// idle slots that are not interchangeable, or a malformed matrix it defers
// to MinWeightPerfectMatching, which also reports any error.
func (ws *Workspace) MinWeightPaddedMatching(w [][]float64, n int) (mate []int, total float64, err error) {
	if mate, ok := ws.paddedDP(w, n); ok {
		for i, m := range mate {
			if i < m {
				total += w[i][m]
			}
		}
		return mate, total, nil
	}
	return ws.MinWeightPerfectMatching(w)
}

// MinWeightPaddedMatching is the allocating form of
// Workspace.MinWeightPaddedMatching.
func MinWeightPaddedMatching(w [][]float64, n int) (mate []int, total float64, err error) {
	return (*Workspace)(nil).MinWeightPaddedMatching(w, n)
}

// paddedDP returns the unique optimum of the idle-padded graph, or false
// when the caller must defer to blossom.
func (ws *Workspace) paddedDP(w [][]float64, n int) ([]int, bool) {
	nv := len(w)
	if nv == 0 || nv%2 != 0 || nv > maxPaddedVertices || n < 0 || n > nv {
		return nil, false
	}
	// The checks of MinWeightPerfectMatching, with symmetry exact, and the
	// same wMax over every off-diagonal cell.
	var wMin, wMax float64 = math.Inf(1), math.Inf(-1)
	for i := range w {
		if len(w[i]) != nv {
			return nil, false
		}
		for j, v := range w[i] {
			if i == j {
				continue
			}
			if math.IsNaN(v) || math.IsInf(v, 0) || v != w[j][i] {
				return nil, false
			}
			if v < wMin {
				wMin = v
			}
			if v > wMax {
				wMax = v
			}
		}
	}
	// Five summed edges must stay far inside int64.
	if (wMax-wMin)*weightScale > 1<<53 {
		return nil, false
	}
	// Idle slots must be interchangeable for the lowest-free rule to cover
	// every grouping.
	for i := 0; i < nv; i++ {
		for j := max(i+1, n+1); j < nv; j++ {
			ref := w[i][n]
			if i >= n {
				ref = w[n][n+1]
			}
			if w[i][j] != ref {
				return nil, false
			}
		}
	}

	var iw [maxPaddedVertices][maxPaddedVertices]int64
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			iw[i][j] = int64(math.Round((wMax-w[i][j])*weightScale)) + 1
		}
	}

	t := new(paddedTables) // a nil workspace's tables last for this call
	if ws != nil {
		t = &ws.dp
	}
	t.grow(nv)
	// One shared length for both tables lets relax drop its bounds checks.
	size := 1 << nv
	gain, pick := t.gain[:size], t.pick[:size]
	full := size - 1
	clear(gain)
	gain[0], pick[0] = 1, 0
	for s := 0; s < full; s++ {
		if gain[s] == 0 {
			continue
		}
		i := bits.TrailingZeros(uint(^s))
		if i >= n {
			// Every application is placed: pair the idle slots in order.
			g := iw[i][i+1]
			relax(gain, pick, s, i, i+1, g)
			continue
		}
		for j := i + 1; j < n; j++ {
			if s&(1<<j) == 0 {
				g := iw[i][j]
				relax(gain, pick, s, i, j, g)
			}
		}
		if k := n + bits.OnesCount(uint(s>>n)); k < nv {
			g := iw[i][k]
			relax(gain, pick, s, i, k, g)
		}
	}
	if pick[full]&tiedBit != 0 {
		return nil, false
	}
	mate := make([]int, nv)
	for s := full; s != 0; {
		i, j := int(pick[s]>>4&0xf), int(pick[s]&0xf)
		mate[i], mate[j] = j, i
		s &^= 1<<i | 1<<j
	}
	return mate, true
}

// relax offers mask s extended by the pair (i, j) of transformed weight g
// in tables of one shared power-of-two length. Masking the extended index
// with that length less one keeps it in range for both tables, so once
// relax is inlined into paddedDP, where the two lengths are one value and
// s < len(gain) is known, the compiler proves every access in bounds. The
// CI bench-smoke job fails if a bounds check comes back at a relax call.
func relax(gain []int64, pick []uint16, s, i, j int, g int64) {
	ns := (s | 1<<i | 1<<j) & (len(gain) - 1)
	switch g += gain[s]; {
	case g > gain[ns]:
		gain[ns], pick[ns] = g, uint16(i<<4|j)|pick[s]&tiedBit
	case g == gain[ns]:
		pick[ns] |= tiedBit
	}
}

// grow sizes the tables for an nv-vertex graph. Tables that already hold
// 2ⁿᵛ cells are kept as they are, so a workspace grows only when a graph
// larger than any before arrives. Cell contents are unspecified: the DP
// writes every cell before it reads it.
func (t *paddedTables) grow(nv int) {
	if size := 1 << nv; len(t.gain) < size {
		t.gain = make([]int64, size)
		t.pick = make([]uint16, size)
	}
}
