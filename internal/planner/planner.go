// Package planner orders conjunctive select predicates: the classic
// cost-based select-ordering decision the paper's Section 6 notes is
// complementary to access path selection. The most selective predicate
// drives the access path (where APS arbitrates scan vs index vs bitmap);
// the remaining predicates run as residual filters over the driver's
// survivors, cheapest first.
package planner

import (
	"errors"
	"sort"

	"fastcolumns/internal/scan"
)

// Filter is one conjunct: a range predicate over a named attribute.
type Filter struct {
	Attr string
	Pred scan.Predicate
}

// Plan is an ordered conjunctive select.
type Plan struct {
	// Driver is the filter that runs through an access path.
	Driver Filter
	// DriverSelectivity is the driver's estimated selectivity.
	DriverSelectivity float64
	// Residuals are the remaining filters in ascending estimated
	// selectivity (reject early).
	Residuals []Filter
}

// Estimator returns the estimated selectivity of a filter in [0, 1].
// Attributes without statistics should return 1 (no information: assume
// the filter rejects nothing and never let it drive).
type Estimator func(Filter) float64

// Order builds the plan: the filter with the lowest estimated
// selectivity drives, the rest become residuals, cheapest first.
func Order(filters []Filter, estimate Estimator) (Plan, error) {
	if len(filters) == 0 {
		return Plan{}, errors.New("planner: no filters")
	}
	type ranked struct {
		f Filter
		s float64
	}
	rs := make([]ranked, len(filters))
	for i, f := range filters {
		s := estimate(f)
		if s < 0 {
			s = 0
		}
		if s > 1 {
			s = 1
		}
		rs[i] = ranked{f: f, s: s}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].s < rs[j].s })
	p := Plan{Driver: rs[0].f, DriverSelectivity: rs[0].s}
	for _, r := range rs[1:] {
		p.Residuals = append(p.Residuals, r.f)
	}
	return p, nil
}
