package model

import "math"

// This file quantifies the Section 3 "Error Propagation" discussion: the
// only estimated input to the APS decision is selectivity (concurrency
// and hardware are exact), so the decision's robustness is the factor by
// which the selectivity estimate may be wrong before the choice flips.
// The engine counts selectivity exactly wherever an index makes the
// choice a real one; these measures report how far a batch sits from
// the boundary, and what a histogram-estimated decision could cost.

// ErrorMargin returns the multiplicative selectivity-error factor m >= 1
// such that scaling every estimated selectivity by m (if the scan was
// chosen) or by 1/m (if the index was chosen) first flips the decision.
// A large margin means the decision is robust to estimation error; a
// margin near 1 means the batch sits at the break-even point, where
// either choice costs about the same anyway (Figure 4's contour bands).
// Returns +Inf when no scaling within [1e-9, 1e9] flips the decision.
func ErrorMargin(p Params) float64 {
	base := Choose(p)
	flipped := func(m float64) bool {
		scaled := p
		sel := make([]float64, len(p.Workload.Selectivities))
		for i, s := range p.Workload.Selectivities {
			v := s * m
			if v > 1 {
				v = 1
			}
			sel[i] = v
		}
		scaled.Workload = Workload{Selectivities: sel}
		return Choose(scaled) != base
	}
	// Index chosen: underestimation is the danger, scale up; scan chosen:
	// overestimation is the danger, scale down.
	dir := 2.0
	if base == PathScan {
		dir = 0.5
	}
	m := 1.0
	for i := 0; i < 64; i++ {
		m *= dir
		if m > 1e9 || m < 1e-9 {
			return math.Inf(1)
		}
		if flipped(m) {
			// Refine with bisection between the last safe and first
			// flipped factor.
			lo, hi := m/dir, m
			for j := 0; j < 40; j++ {
				mid := math.Sqrt(lo * hi)
				if flipped(mid) {
					hi = mid
				} else {
					lo = mid
				}
			}
			margin := math.Sqrt(lo * hi)
			if margin < 1 {
				margin = 1 / margin
			}
			return margin
		}
	}
	return math.Inf(1)
}

// WrongChoicePenalty returns the slowdown suffered if the optimizer had
// picked the other path for this batch: cost(other)/cost(chosen). Near
// the break-even point it approaches 1 (mistakes are cheap there —
// exactly why estimation error is tolerable near the boundary).
func WrongChoicePenalty(p Params) float64 {
	scanCost := SharedScan(p)
	idxCost := ConcIndex(p)
	if Choose(p) == PathScan {
		return idxCost / scanCost
	}
	return scanCost / idxCost
}
