package index

import (
	"context"
	"math"
	"sort"
	"sync"

	rt "fastcolumns/internal/runtime"
	"fastcolumns/internal/storage"
)

// RangeRowIDs appends the rowIDs of every entry with lo <= key <= hi to
// out, in key order (ties in rowID order): one contiguous copy of the
// leaf level between lower(lo) and upper(hi). The caller sorts by rowID
// if the next operator needs a scan-compatible result (Section 2.3,
// "Sorting the Result Set").
func (t *Tree) RangeRowIDs(lo, hi storage.Value, out []storage.RowID) []storage.RowID {
	if lo > hi {
		return out
	}
	return append(out, t.ids[t.lower(lo):t.upper(hi)]...)
}

// RangeCount returns the number of entries in [lo, hi] without
// materializing them: the difference of two positions, upper(hi) −
// lower(lo). The optimizer prices every indexed batch from it.
func (t *Tree) RangeCount(lo, hi storage.Value) int {
	if lo > hi {
		return 0
	}
	return t.upper(hi) - t.lower(lo)
}

// upper returns the number of entries whose key is <= hi: lower(hi+1),
// or all of them when hi+1 would overflow.
func (t *Tree) upper(hi storage.Value) int {
	if hi == math.MaxInt32 {
		return len(t.keys)
	}
	return t.lower(hi + 1)
}

// lowerBound returns the number of keys < lo: the first position whose
// key is >= lo. The descent searches every node with it; it is written
// out rather than calling sort.Search so that it inlines.
func lowerBound(keys []storage.Value, lo storage.Value) int {
	i, j := 0, len(keys)
	for i < j {
		m := int(uint(i+j) >> 1)
		if keys[m] < lo {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// Select answers one select operator through the index: probe, then sort
// the result into rowID order so it is directly interchangeable with a
// scan's output.
func (t *Tree) Select(lo, hi storage.Value, out []storage.RowID) []storage.RowID {
	start := len(out)
	out = t.RangeRowIDs(lo, hi, out)
	SortRowIDs(out[start:])
	return out
}

// SortRowIDs sorts a result set into rowID order — the SC term of the
// cost model.
func SortRowIDs(ids []storage.RowID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// probeJob is one pooled shared-index-scan dispatch: one morsel per
// range query. It implements runtime.Job. Probe cost is proportional
// to a query's result cardinality, so a skewed batch makes the old
// static query partition straggle; with one morsel per query, idle
// workers steal the cheap probes away from whoever is copying the long
// result.
type probeJob struct {
	t      *Tree
	ranges [][2]storage.Value
	hints  []int
	arena  *rt.Arena
	cells  []*rt.Buf
}

var probeJobPool = sync.Pool{New: func() any { return new(probeJob) }}

// RunMorsel probes range qi and sorts its result into rowID order.
//
//fclint:owns — the job owns its cells until Finish attaches them to the pooled result set.
func (j *probeJob) RunMorsel(qi int) {
	hint := 0
	if qi < len(j.hints) {
		hint = j.hints[qi]
	}
	b := j.arena.GetBuf(hint)
	b.IDs = j.t.Select(j.ranges[qi][0], j.ranges[qi][1], b.IDs)
	j.cells[qi] = b
}

// SharedSelectContext answers a batch of q range queries over the
// index, the shared index scan of Figure 2(c)/3(b): each query is one
// morsel on the pool, each probing the tree independently, with
// natural sharing of the top levels left to the CPU caches. Results
// are per query, sorted by rowID, in buffers checked out of the arena
// (sized by hints — expected result rows per query). pool and arena
// may be nil; cancellation is observed between probes.
func (t *Tree) SharedSelectContext(ctx context.Context, pool *rt.Pool, arena *rt.Arena,
	ranges [][2]storage.Value, hints []int) (*rt.Results, error) {
	j := probeJobPool.Get().(*probeJob)
	j.t, j.ranges, j.hints, j.arena = t, ranges, hints, arena
	if cap(j.cells) < len(ranges) {
		j.cells = make([]*rt.Buf, len(ranges))
	} else {
		j.cells = j.cells[:len(ranges)]
		for i := range j.cells {
			j.cells[i] = nil
		}
	}
	err := pool.Dispatch(ctx, len(ranges), j)
	var res *rt.Results
	if err == nil {
		res = arena.GetResults(len(ranges))
		for qi, cell := range j.cells {
			if cell != nil {
				res.Attach(qi, cell)
				j.cells[qi] = nil
			}
		}
	} else {
		for qi, cell := range j.cells {
			if cell != nil {
				arena.PutBuf(cell)
				j.cells[qi] = nil
			}
		}
	}
	j.cells = j.cells[:0]
	j.t, j.ranges, j.hints, j.arena = nil, nil, nil, nil
	probeJobPool.Put(j)
	return res, err
}
