// Package bitmap implements the value-per-bitmap secondary index that
// Appendix E recommends considering for very small value domains (256
// distinct values or less): one N-bit bitmap per distinct value, a range
// select ORs the qualifying bitmaps and emits set positions — which are
// rowIDs already in ascending order, so no sort step is needed at all.
package bitmap

import (
	"fmt"
	"math/bits"
	"sort"

	"fastcolumns/internal/storage"
)

// MaxDomain is the largest distinct-value count worth a bitmap index;
// beyond it the index's storage (values x N bits) and range-OR costs
// beat B+-trees only in corner cases. The paper draws the same line.
const MaxDomain = 256

// Index is a bitmap secondary index over one column.
type Index struct {
	values  []storage.Value // sorted distinct values
	bitmaps [][]uint64      // bitmaps[i] marks rows holding values[i]
	// cum[i] is the number of rows holding a value below values[i];
	// cum[len(values)] is n.
	cum   []int
	n     int
	words int
}

// Build scans the column once and materializes one bitmap per distinct
// value, counting each value's rows as it sets their bits. It fails when
// the domain exceeds MaxDomain.
func Build(c *storage.Column) (*Index, error) {
	n := c.Len()
	distinct := make(map[storage.Value]struct{})
	for i := 0; i < n; i++ {
		distinct[c.Get(i)] = struct{}{}
		if len(distinct) > MaxDomain {
			return nil, fmt.Errorf("bitmap: domain exceeds %d distinct values", MaxDomain)
		}
	}
	values := make([]storage.Value, 0, len(distinct))
	for v := range distinct {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	slot := make(map[storage.Value]int, len(values))
	for i, v := range values {
		slot[v] = i
	}
	words := (n + 63) / 64
	idx := &Index{values: values, n: n, words: words, cum: make([]int, len(values)+1)}
	idx.bitmaps = make([][]uint64, len(values))
	flat := make([]uint64, len(values)*words)
	for i := range idx.bitmaps {
		idx.bitmaps[i] = flat[i*words : (i+1)*words]
	}
	for i := 0; i < n; i++ {
		s := slot[c.Get(i)]
		idx.bitmaps[s][i/64] |= 1 << (uint(i) % 64)
		idx.cum[s+1]++
	}
	for s := 1; s < len(idx.cum); s++ {
		idx.cum[s] += idx.cum[s-1]
	}
	return idx, nil
}

// Len returns the number of indexed rows.
func (x *Index) Len() int { return x.n }

// Cardinality returns the number of distinct values (bitmaps).
func (x *Index) Cardinality() int { return len(x.values) }

// SizeBytes returns the memory footprint of the bitmaps.
func (x *Index) SizeBytes() int { return len(x.values) * x.words * 8 }

// valueRange returns the slots of values inside [lo, hi].
func (x *Index) valueRange(lo, hi storage.Value) (int, int) {
	i := sort.Search(len(x.values), func(i int) bool { return x.values[i] >= lo })
	j := sort.Search(len(x.values), func(i int) bool { return x.values[i] > hi })
	return i, j
}

// Select returns the rowIDs with lo <= value <= hi, in ascending rowID
// order, appended to out. The range's bitmaps are ORed word-by-word and
// positions extracted with trailing-zero counts.
func (x *Index) Select(lo, hi storage.Value, out []storage.RowID) []storage.RowID {
	i, j := x.valueRange(lo, hi)
	if i >= j {
		return out
	}
	maps := x.bitmaps[i:j]
	for w := 0; w < x.words; w++ {
		word := uint64(0)
		for _, m := range maps {
			word |= m[w]
		}
		base := uint32(w * 64)
		for word != 0 {
			out = append(out, storage.RowID(base+uint32(bits.TrailingZeros64(word))))
			word &= word - 1
		}
	}
	return out
}

// Count returns the exact number of rows with lo <= value <= hi from the
// per-value counts Build recorded, touching no bitmap.
func (x *Index) Count(lo, hi storage.Value) int {
	i, j := x.valueRange(lo, hi)
	if i >= j {
		return 0
	}
	return x.cum[j] - x.cum[i]
}

// SharedSelect answers a batch of ranges, one result set per query in
// rowID order. Bitmap word streams are re-read per query; with very
// small domains the bitmaps are cache resident across the batch.
func (x *Index) SharedSelect(ranges [][2]storage.Value) [][]storage.RowID {
	out := make([][]storage.RowID, len(ranges))
	for qi, r := range ranges {
		out[qi] = x.Select(r[0], r[1], nil)
	}
	return out
}
