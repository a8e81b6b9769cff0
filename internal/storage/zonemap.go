package storage

// Zonemap keeps min/max bounds for fixed-size zones of a column so scans
// can skip zones that cannot contain qualifying tuples (Section 2.1,
// "Other Scan Enhancements"). Zonemaps shine on clustered data; on random
// data few zones are skippable, and under shared scans a zone is only
// skippable when *every* query in the batch can skip it.
type Zonemap struct {
	zoneSize int
	mins     []Value
	maxs     []Value
	rows     int
}

// BuildZonemap scans the column once and records per-zone bounds.
// zoneSize is in tuples; typical values are a few thousand.
func BuildZonemap(c *Column, zoneSize int) *Zonemap {
	if zoneSize < 1 {
		zoneSize = 1
	}
	n := c.Len()
	zones := (n + zoneSize - 1) / zoneSize
	z := &Zonemap{
		zoneSize: zoneSize,
		mins:     make([]Value, zones),
		maxs:     make([]Value, zones),
		rows:     n,
	}
	for zi := 0; zi < zones; zi++ {
		lo := zi * zoneSize
		hi := min(lo+zoneSize, n)
		mn, mx := c.Get(lo), c.Get(lo)
		for i := lo + 1; i < hi; i++ {
			v := c.Get(i)
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		z.mins[zi], z.maxs[zi] = mn, mx
	}
	return z
}

// Zones returns the number of zones.
func (z *Zonemap) Zones() int { return len(z.mins) }

// ZoneSize returns the tuples per zone.
func (z *Zonemap) ZoneSize() int { return z.zoneSize }

// ZoneBounds returns the row range [lo, hi) of zone zi.
func (z *Zonemap) ZoneBounds(zi int) (lo, hi int) {
	lo = zi * z.zoneSize
	hi = min(lo+z.zoneSize, z.rows)
	return lo, hi
}

// Skippable reports whether zone zi cannot contain any value in [lo, hi].
func (z *Zonemap) Skippable(zi int, lo, hi Value) bool {
	return z.maxs[zi] < lo || z.mins[zi] > hi
}

// Prunes reports whether rows [lo, hi) provably hold no value in
// [vlo, vhi]: every zone overlapping the range is skippable. Zone and
// range boundaries need not align. It makes the zonemap a block pruner
// for shared-scan passes, where each query prunes for itself — so
// skipping survives concurrency instead of decaying with it.
func (z *Zonemap) Prunes(lo, hi int, vlo, vhi Value) bool {
	for zi := lo / z.zoneSize; zi < len(z.mins) && zi*z.zoneSize < hi; zi++ {
		if !z.Skippable(zi, vlo, vhi) {
			return false
		}
	}
	return true
}

// SkippableForAll reports whether zone zi is skippable for every query
// range in the batch — the shared-scan condition that makes zonemaps lose
// power as concurrency grows (Section 2.1).
func (z *Zonemap) SkippableForAll(zi int, ranges [][2]Value) bool {
	for _, r := range ranges {
		if !z.Skippable(zi, r[0], r[1]) {
			return false
		}
	}
	return true
}

// SkipFraction returns the fraction of zones skippable for the whole
// batch: the model's "reduce N by the expected number of zones skipped".
func (z *Zonemap) SkipFraction(ranges [][2]Value) float64 {
	if len(z.mins) == 0 {
		return 0
	}
	skipped := 0
	for zi := range z.mins {
		if z.SkippableForAll(zi, ranges) {
			skipped++
		}
	}
	return float64(skipped) / float64(len(z.mins))
}
