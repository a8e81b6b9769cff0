// Package imprints implements column imprints (Sidirourgos & Kersten,
// SIGMOD 2013 — reference [76] of the paper's Appendix E): a secondary
// scan accelerator that keeps one 64-bit imprint per cache line of the
// column. Bit b of a line's imprint is set when some value in the line
// falls into histogram bin b; a range query builds the mask of bins its
// bounds overlap, skips every line whose imprint misses the mask, and
// scans only the surviving lines. Runs of identical imprints are
// run-length encoded, which is what makes imprints cheap on clustered
// data.
package imprints

import (
	"errors"
	"fmt"
	"sort"

	"fastcolumns/internal/scan"
	"fastcolumns/internal/storage"
)

// LineValues is the number of 4-byte values per 64-byte cache line.
const LineValues = 16

// Bins is the number of histogram bins (one per imprint bit).
const Bins = 64

type entry struct {
	imprint uint64
	count   uint32 // consecutive lines sharing this imprint
	first   uint32 // index of the run's first line
}

// Index is a column-imprints secondary structure over one column.
type Index struct {
	// bounds[b] is the upper bound (inclusive) of bin b; bin Bins-1 is
	// unbounded above.
	bounds  [Bins - 1]storage.Value
	entries []entry
	n       int
	lines   int
}

// Build samples the column for equi-depth bin bounds and imprints every
// cache line. The column must be contiguous (imprints describe physical
// lines).
func Build(c *storage.Column) (*Index, error) {
	data, err := c.Raw()
	if err != nil {
		return nil, fmt.Errorf("imprints: column must be contiguous: %w", err)
	}
	if len(data) == 0 {
		return nil, errors.New("imprints: empty column")
	}
	x := &Index{n: len(data)}
	x.computeBounds(data)

	x.lines = (len(data) + LineValues - 1) / LineValues
	for line := 0; line < x.lines; line++ {
		lo := line * LineValues
		hi := min(lo+LineValues, len(data))
		var imp uint64
		for _, v := range data[lo:hi] {
			imp |= 1 << x.bin(v)
		}
		if k := len(x.entries); k > 0 && x.entries[k-1].imprint == imp {
			x.entries[k-1].count++
		} else {
			x.entries = append(x.entries, entry{imprint: imp, count: 1, first: uint32(line)})
		}
	}
	return x, nil
}

// computeBounds picks equi-depth bin bounds from a sample.
func (x *Index) computeBounds(data []storage.Value) {
	const sampleCap = 1 << 16
	sample := data
	if len(data) > sampleCap {
		step := len(data) / sampleCap
		s := make([]storage.Value, 0, sampleCap)
		for i := 0; i < len(data); i += step {
			s = append(s, data[i])
		}
		sample = s
	}
	sorted := append([]storage.Value(nil), sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for b := 0; b < Bins-1; b++ {
		// Fewer sampled values than bins: the low bins share the minimum.
		x.bounds[b] = sorted[max((b+1)*len(sorted)/Bins-1, 0)]
	}
}

// bin returns the bin index of a value.
func (x *Index) bin(v storage.Value) uint {
	i := sort.Search(Bins-1, func(i int) bool { return x.bounds[i] >= v })
	return uint(i)
}

// mask returns the imprint mask of bins overlapping [lo, hi].
func (x *Index) mask(lo, hi storage.Value) uint64 {
	bl, bh := x.bin(lo), x.bin(hi)
	if bh >= 63 {
		return ^uint64(0) << bl
	}
	return (^uint64(0) << bl) & (^uint64(0) >> (63 - bh))
}

// Len returns the indexed row count.
func (x *Index) Len() int { return x.n }

// Entries returns the RLE-compressed imprint count (its memory footprint
// is Entries() * 16 bytes, typically a small fraction of the column).
func (x *Index) Entries() int { return len(x.entries) }

// CheckedFraction returns the fraction of cache lines a query on
// [lo, hi] must actually scan — the data-skipping power on this data.
func (x *Index) CheckedFraction(lo, hi storage.Value) float64 {
	if lo > hi || x.lines == 0 {
		return 0
	}
	m := x.mask(lo, hi)
	checked := 0
	for _, e := range x.entries {
		if e.imprint&m != 0 {
			checked += int(e.count)
		}
	}
	return float64(checked) / float64(x.lines)
}

// ScanRows is the imprint scan over rows [lo, hi) of data (the indexed
// column): it walks the run-length-encoded imprints covering the range,
// skips every cache line whose imprint misses the query mask, and runs
// the predicated kernel over each maximal run of surviving lines,
// appending qualifying rowIDs to out in ascending order. It makes the
// index a scan.RowScanner: the raw source hands it each block a pass
// does not prune, so skipping stays cache-line granular inside blocks
// that are far too large to be empty on locally clustered data.
func (x *Index) ScanRows(data []storage.Value, lo, hi int, vlo, vhi storage.Value, out []storage.RowID) []storage.RowID {
	if vlo > vhi || lo >= hi {
		return out
	}
	m := x.mask(vlo, vhi)
	p := scan.Predicate{Lo: vlo, Hi: vhi}
	lastLine := uint32((hi - 1) / LineValues)
	from, to := lo, lo // the pending run of surviving rows
	for e := x.entryAt(lo / LineValues); e < len(x.entries) && x.entries[e].first <= lastLine; e++ {
		en := x.entries[e]
		if en.imprint&m == 0 {
			continue
		}
		if start := int(en.first) * LineValues; start > to {
			if to > from {
				out = scan.ScanUnrolled(data[from:to], p, from, out)
			}
			from = start
		}
		to = min(int(en.first+en.count)*LineValues, hi)
	}
	if to > from {
		out = scan.ScanUnrolled(data[from:to], p, from, out)
	}
	return out
}

// entryAt returns the index of the run-length entry covering line.
func (x *Index) entryAt(line int) int {
	return sort.Search(len(x.entries), func(i int) bool { return int(x.entries[i].first) > line }) - 1
}

// Prunes reports whether rows [lo, hi) provably hold no value in
// [vlo, vhi]: no cache line overlapping the range has an imprint that
// intersects the query mask. It makes the imprint vector a block pruner
// for shared-scan passes (scan.Pruner): a pass skips the block for that
// query without touching the data; ScanRows serves the blocks that
// survive.
func (x *Index) Prunes(lo, hi int, vlo, vhi storage.Value) bool {
	if vlo > vhi || lo >= hi {
		return true
	}
	m := x.mask(vlo, vhi)
	lastLine := uint32((hi - 1) / LineValues)
	for e := x.entryAt(lo / LineValues); e < len(x.entries) && x.entries[e].first <= lastLine; e++ {
		if x.entries[e].imprint&m != 0 {
			return false
		}
	}
	return true
}
