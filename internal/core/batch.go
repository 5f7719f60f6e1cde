package core

// Batched model inversion: the serving-path entry point that amortises
// per-call setup across a whole batch of ST-estimation requests. One call
// allocates a single backing array for every result vector and resolves
// each request through the arena's inversion memo, so duplicate ST vectors
// inside the batch (and across batches, and across concurrent callers with
// a shared cache) evaluate the expensive Newton inversion exactly once and
// the cache warms coherently — every stored entry is keyed by the exact
// bit pattern the placement path would key it with.

import "synpa/internal/machine"

// InvertRequest is one batched inversion: the measured SMT category
// fractions of an application (FI) and of its co-runner aggregate (FJ) —
// the same two vectors Policy hands Model.Invert per pair.
type InvertRequest struct {
	FI, FJ []float64
}

// InvertResult is one batched inversion's outcome. CI and CJ are the
// estimated ST category vectors; they are slices of a per-batch backing
// array owned by the caller (safe to mutate, unlike the memo-owned slices
// predcache.Handle.Invert returns).
type InvertResult struct {
	CI, CJ    []float64
	Converged bool
}

// WarmInversions prefetches the model inversions a batch of placement
// queries will need, through one InvertBatch call on the caller's arena.
// For every core of every state that held exactly two applications (at
// any SMT level, inversion enabled) it extracts exactly the fraction
// vectors PlaceR's Step 1 would extract — same extractor, same
// (lower-index, higher-index) argument order — so the memo entries it
// populates are keyed by the exact bits the subsequent PlaceR calls will
// look up. Larger groups, inverted against mean co-runner vectors, are not
// warmed. Warming is bit-neutral by the predcache argument: a hit returns
// the bit-identical value a fresh evaluation would produce, so the only
// effect is when the Newton solves run, never what they produce. It
// returns the number of pair inversions batched. The serving batch
// endpoint calls this once per request chunk to amortise inversion work
// across the chunk.
func (p *Policy) WarmInversions(a *Arena, sts []*machine.QuantumState) int {
	if p.opt.DisableInversion {
		return 0
	}
	var reqs []InvertRequest
	for _, st := range sts {
		if st == nil || st.Samples == nil || st.Prev == nil {
			continue
		}
		a.prevGroups = st.Prev.PairsOf(st.NumCores, a.prevGroups)
		for _, g := range a.prevGroups {
			if len(g) != 2 || g[1] >= len(st.Samples) {
				continue
			}
			reqs = append(reqs, InvertRequest{
				FI: p.opt.Extract(st.Samples[g[0]], st.DispatchWidth),
				FJ: p.opt.Extract(st.Samples[g[1]], st.DispatchWidth),
			})
		}
	}
	p.InvertBatch(a, reqs)
	return len(reqs)
}

// InvertBatch inverts a batch of ST requests in one call through the
// arena's inversion memo. Results land in one backing allocation; repeated
// requests hit the memo. Like PlaceR, it is safe to call concurrently as
// long as each goroutine holds its own Arena.
func (p *Policy) InvertBatch(a *Arena, reqs []InvertRequest) []InvertResult {
	if len(reqs) == 0 {
		return nil
	}
	k := p.model.K()
	res := make([]InvertResult, len(reqs))
	back := make([]float64, 2*k*len(reqs))
	for idx := range reqs {
		ci, cj, conv := a.memo.Invert(reqs[idx].FI, reqs[idx].FJ, p.invertFn)
		dst := back[2*k*idx : 2*k*(idx+1)]
		res[idx].CI = dst[:k:k]
		res[idx].CJ = dst[k : 2*k : 2*k]
		copy(res[idx].CI, ci)
		copy(res[idx].CJ, cj)
		res[idx].Converged = conv
	}
	return res
}
