package core

import (
	"fmt"

	"synpa/internal/characterize"
	"synpa/internal/pmu"
)

// Extractor converts one application's PMU sample (a quantum delta) into a
// category-fraction vector for a model. Fractions are normalised to the
// sample's cycles and sum to ~1. The vector is written over dst[:0] and
// returned: a dst with capacity for the model's K categories is reused, so
// a caller that keeps a row per application extracts without allocating,
// and a nil dst gets a fresh vector.
type Extractor func(dst []float64, c pmu.Counters, width int) []float64

// ExtractorFor returns the extractor that reads a K-category model's
// fractions from the PMU: ThreeCategoryFractions for the paper's final
// model (K = 3), TenCategoryFractions for the §VI-A preliminary one
// (K = 10). Any other K has no extractor, so no policy can serve it. The
// choice goes by K alone: a three-category model may name its categories
// as it likes.
func ExtractorFor(k int) (Extractor, error) {
	switch k {
	case 3:
		return ThreeCategoryFractions, nil
	case 10:
		return TenCategoryFractions, nil
	}
	return nil, fmt.Errorf("core: no extractor for a %d-category model (want 3 or 10)", k)
}

// ThreeCategoryFractions extracts the paper's final three categories
// (full-dispatch, frontend stalls, backend stalls) using the §III-B
// characterization with the default reveals-to-backend rule.
func ThreeCategoryFractions(dst []float64, c pmu.Counters, width int) []float64 {
	b := characterize.FromCounters(c, width)
	return append(dst[:0], b.FD, b.FE, b.BE)
}

// ThreeCategoryFractionsRule returns an Extractor using an alternative
// Step 3 splitting rule (for the reveals-attribution ablation).
func ThreeCategoryFractionsRule(rule characterize.SplitRule) Extractor {
	return func(dst []float64, c pmu.Counters, width int) []float64 {
		b := characterize.FromCountersRule(c, width, rule)
		return append(dst[:0], b.FD, b.FE, b.BE)
	}
}

// TenCategories names the vector produced by TenCategoryFractions: the
// paper's preliminary model that split the backend into its component
// stall causes (§VI-A) before being discarded for the three-category one.
var TenCategories = []string{
	"Full-dispatch cycles",
	"FE: I-cache",
	"FE: branch",
	"BE: memory latency",
	"BE: ROB full",
	"BE: IQ full",
	"BE: LDQ full",
	"BE: STQ full",
	"BE: dispatch slots",
	"BE: other",
}

// TenCategoryFractions extracts the ten-category vector. The revealed
// horizontal waste of Step 2 is attributed to the dispatch-slot category —
// horizontal waste *is* slot waste — keeping the vector a partition of the
// sample's cycles.
func TenCategoryFractions(dst []float64, c pmu.Counters, width int) []float64 {
	b := characterize.FromCounters(c, width)
	total := float64(c[pmu.CPUCycles])
	if total == 0 {
		return append(dst[:0], make([]float64, len(TenCategories))...)
	}
	frac := func(e pmu.Event) float64 { return float64(c[e]) / total }
	return append(dst[:0],
		b.FD,
		frac(pmu.StallFEICache),
		frac(pmu.StallFEBranch),
		frac(pmu.StallBEMemLat),
		frac(pmu.StallBEROB),
		frac(pmu.StallBEIQ),
		frac(pmu.StallBELDQ),
		frac(pmu.StallBESTQ),
		frac(pmu.StallBESlots)+b.Revealed/total,
		frac(pmu.StallBEOther),
	)
}
