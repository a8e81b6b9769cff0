// Package stats provides the one estimated statistic the APS optimizer
// consumes at run time (Section 3, "Continuous Data Collection"): an
// equi-depth histogram that estimates selectivity on an attribute with
// neither a secondary index nor a bitmap index, for the optimizer, the
// query planner and mid-pass attach. Where either index exists, it
// counts the attribute's selectivities exactly and no histogram is kept.
// The other Section 3 statistic, outstanding queries per attribute, is
// the scheduler's pending count.
package stats

import (
	"errors"
	"math"
	"sort"

	"fastcolumns/internal/storage"
)

// Histogram is an equi-depth histogram: bucket boundaries chosen so each
// bucket holds (approximately) the same number of tuples, which keeps
// relative estimation error stable across skewed data.
type Histogram struct {
	// bounds[i] is the upper value bound (inclusive) of bucket i;
	// bucket i covers (bounds[i-1], bounds[i]].
	bounds []storage.Value
	// cum[i] is the number of tuples with value <= bounds[i].
	cum []int
	n   int
	min storage.Value
}

// BuildHistogram constructs an equi-depth histogram with the requested
// number of buckets from a full pass over the column. For large columns
// callers may pass a sample column instead; the estimate then scales by
// the sample rate implicitly since selectivity is a fraction.
func BuildHistogram(c *storage.Column, buckets int) (*Histogram, error) {
	n := c.Len()
	if n == 0 {
		return nil, errors.New("stats: cannot build histogram over empty column")
	}
	if buckets < 1 {
		buckets = 1
	}
	if buckets > n {
		buckets = n
	}
	sorted := make([]storage.Value, n)
	for i := 0; i < n; i++ {
		sorted[i] = c.Get(i)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	h := &Histogram{n: n, min: sorted[0]}
	for b := 1; b <= buckets; b++ {
		idx := n*b/buckets - 1
		bound := sorted[idx]
		// Equal values cannot straddle buckets: extend to the last equal.
		for idx+1 < n && sorted[idx+1] == bound {
			idx++
		}
		if len(h.bounds) > 0 && h.bounds[len(h.bounds)-1] == bound {
			continue
		}
		h.bounds = append(h.bounds, bound)
		h.cum = append(h.cum, idx+1)
	}
	return h, nil
}

// Buckets returns the number of buckets actually materialized (can be
// fewer than requested on low-cardinality data).
func (h *Histogram) Buckets() int { return len(h.bounds) }

// cdf returns the estimated number of tuples with value <= v, using
// linear interpolation within the containing bucket.
func (h *Histogram) cdf(v storage.Value) float64 {
	if v < h.min {
		return 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	if i == len(h.bounds) {
		return float64(h.n)
	}
	hiBound, hiCum := float64(h.bounds[i]), float64(h.cum[i])
	loBound, loCum := float64(h.min)-1, 0.0
	if i > 0 {
		loBound, loCum = float64(h.bounds[i-1]), float64(h.cum[i-1])
	}
	if hiBound == loBound {
		return hiCum
	}
	frac := (float64(v) - loBound) / (hiBound - loBound)
	return loCum + frac*(hiCum-loCum)
}

// EstimateRange returns the estimated selectivity of lo <= v <= hi as a
// fraction of the relation in [0, 1].
func (h *Histogram) EstimateRange(lo, hi storage.Value) float64 {
	if lo > hi || h.n == 0 {
		return 0
	}
	var below float64
	if lo > math.MinInt32 {
		// Guard the open-below case: lo-1 would wrap around to MaxInt32.
		below = h.cdf(lo - 1)
	}
	est := (h.cdf(hi) - below) / float64(h.n)
	switch {
	case est < 0:
		return 0
	case est > 1:
		return 1
	}
	return est
}
