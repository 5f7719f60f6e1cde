package matching

import "math"

// maxBruteForceVertices bounds BruteForceMinWeightPerfect's subset tables.
const maxBruteForceVertices = 24

// BruteForceMinWeightPerfect computes the exact minimum-weight perfect
// matching by dynamic programming over vertex subsets (O(2ⁿ·n)). It is the
// verification oracle for the Blossom implementation and the baseline of the
// matcher-overhead ablation (DESIGN.md §5.3): enumerating combinations is
// what the paper warns "grows quickly with the number of cores".
//
// Its tables take 12 bytes per vertex subset, so it refuses graphs above
// maxBruteForceVertices with ErrTooLarge (2²⁴ subsets, 192 MiB).
func BruteForceMinWeightPerfect(w [][]float64) (mate []int, total float64, err error) {
	n := len(w)
	if n == 0 {
		return nil, 0, nil
	}
	if n%2 != 0 {
		return nil, 0, ErrOddVertices
	}
	if n > maxBruteForceVertices {
		return nil, 0, ErrTooLarge
	}
	for i := range w {
		if len(w[i]) != n {
			return nil, 0, ErrNotSquare
		}
	}

	full := 1 << n
	cost := make([]float64, full)
	choice := make([]int32, full) // packed (i<<16)|j of the pair taken last
	for s := 1; s < full; s++ {
		cost[s] = math.Inf(1)
		choice[s] = -1
	}
	cost[0] = 0
	for s := 0; s < full; s++ {
		if math.IsInf(cost[s], 1) {
			continue
		}
		// Match the lowest unset vertex: every perfect matching pairs it
		// with someone, so fixing it avoids double counting.
		i := 0
		for i < n && s&(1<<i) != 0 {
			i++
		}
		if i == n {
			continue
		}
		for j := i + 1; j < n; j++ {
			if s&(1<<j) != 0 {
				continue
			}
			ns := s | 1<<i | 1<<j
			if c := cost[s] + w[i][j]; c < cost[ns] {
				cost[ns] = c
				choice[ns] = int32(i)<<16 | int32(j)
			}
		}
	}

	mate = make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	for s := full - 1; s != 0; {
		packed := choice[s]
		if packed < 0 {
			return nil, 0, ErrBadWeight // unreachable for finite weights
		}
		i, j := int(packed>>16), int(packed&0xffff)
		mate[i], mate[j] = j, i
		s &^= 1<<i | 1<<j
	}
	return mate, cost[full-1], nil
}
