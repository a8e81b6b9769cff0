package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fastcolumns/internal/storage"
)

// buildMerged bulk-loads keys[:prefix] and merges the rest in chunks
// runs of consecutive rows, the way Table.Merge folds in each delta.
func buildMerged(keys []storage.Value, prefix, chunks, fanout int) *Tree {
	tr := Build(storage.NewColumn("v", keys[:prefix]), fanout)
	rest := len(keys) - prefix
	for c := 1; c <= chunks; c++ {
		tr = tr.Merge(storage.NewColumn("v", keys[:prefix+rest*c/chunks]))
	}
	return tr
}

// naiveRange filters keys for [lo, hi] and returns the qualifying rowIDs
// in key order, ties in rowID order: what RangeRowIDs must emit.
func naiveRange(keys []storage.Value, lo, hi storage.Value) []storage.RowID {
	var out []storage.RowID
	for i, k := range keys {
		if k >= lo && k <= hi {
			out = append(out, storage.RowID(i))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return keys[out[i]] < keys[out[j]] })
	return out
}

// checkRange compares RangeCount and RangeRowIDs with the naive filter.
func checkRange(t *testing.T, name string, tr *Tree, keys []storage.Value, lo, hi storage.Value) {
	t.Helper()
	want := naiveRange(keys, lo, hi)
	if got := tr.RangeCount(lo, hi); got != len(want) {
		t.Fatalf("%s: RangeCount(%d, %d) = %d, filter %d", name, lo, hi, got, len(want))
	}
	if got := tr.RangeRowIDs(lo, hi, nil); !equalIDs(got, want) {
		t.Fatalf("%s: RangeRowIDs(%d, %d) = %d rows, filter %d rows (or order differs)", name, lo, hi, len(got), len(want))
	}
}

// countedTrees builds the trees the property runs over: bulk-loaded, and
// bulk-loaded over half the keys then extended by three merges (the
// delta-merge path), all over a small domain so duplicate runs span
// many leaves and straddle the merge points.
func countedTrees(seed int64, n int, domain int32, fanout int) (map[string]*Tree, []storage.Value) {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]storage.Value, n)
	for i := range keys {
		keys[i] = rng.Int31n(domain)
	}
	return map[string]*Tree{
		"bulk":   Build(storage.NewColumn("v", keys), fanout),
		"merged": buildMerged(keys, n/2, 3, fanout),
	}, keys
}

// TestRangeCountMatchesLeafWalk is the flat tree's property: for random
// ranges — inverted, open below at MinInt32, open above at MaxInt32 —
// the count and the rowIDs equal a naive filter, at fanout 3, the
// default 21 and the disk-era 250. Domain 1 is the extreme duplicate
// case: every separator equals the one key.
func TestRangeCountMatchesLeafWalk(t *testing.T) {
	for _, fanout := range []int{3, 21, 250} {
		for _, domain := range []int32{1, 7, 200, 1 << 20} {
			trees, keys := countedTrees(int64(fanout)*int64(domain), 3000, domain, fanout)
			rng := rand.New(rand.NewSource(int64(domain)))
			for name, tr := range trees {
				if tr.Len() != len(keys) {
					t.Fatalf("fanout %d domain %d %s: Len %d, want %d", fanout, domain, name, tr.Len(), len(keys))
				}
				ranges := [][2]storage.Value{
					{math.MinInt32, math.MaxInt32},
					{math.MinInt32, domain / 2},
					{domain / 2, math.MaxInt32},
					{0, 0}, {domain - 1, domain - 1}, {domain, domain + 5},
					{5, 4}, // lo > hi
				}
				for i := 0; i < 200; i++ {
					lo := rng.Int31n(domain+2) - 1
					ranges = append(ranges, [2]storage.Value{lo, lo + rng.Int31n(domain/4+1)})
				}
				for _, r := range ranges {
					checkRange(t, fmt.Sprintf("fanout %d domain %d %s", fanout, domain, name), tr, keys, r[0], r[1])
				}
			}
		}
	}
}

// TestRangeCountZeroAlloc guards the optimizer's per-query cost: a count
// is two descents and allocates nothing.
func TestRangeCountZeroAlloc(t *testing.T) {
	tr := Build(randomColumn(12, 100_000, 1<<20), DefaultFanout)
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		sink += tr.RangeCount(1000, 500_000)
		sink += tr.RangeCount(math.MinInt32, math.MaxInt32)
	})
	if allocs != 0 {
		t.Fatalf("RangeCount allocates %v per call pair, want 0", allocs)
	}
	_ = sink
}

// FuzzRangeCount cross-checks the count and the rowIDs against a naive
// filter over the keys, on trees bulk-loaded whole or bulk-loaded over a
// prefix and extended by one to three merges.
func FuzzRangeCount(f *testing.F) {
	f.Add(int64(1), uint16(500), uint16(10), uint8(0), int32(3), int32(6), false)
	f.Add(int64(2), uint16(2000), uint16(1), uint8(18), int32(0), int32(0), true)
	f.Add(int64(3), uint16(64), uint16(1000), uint8(1), int32(math.MinInt32), int32(500), true)
	f.Add(int64(4), uint16(300), uint16(50), uint8(5), int32(40), int32(math.MaxInt32), false)
	f.Add(int64(5), uint16(300), uint16(50), uint8(5), int32(9), int32(2), true) // lo > hi
	f.Add(int64(6), uint16(0), uint16(50), uint8(5), int32(0), int32(10), true)  // empty tree
	f.Fuzz(func(t *testing.T, seed int64, n, domain uint16, fanoutSeed uint8, lo, hi int32, merged bool) {
		fanout := 3 + int(fanoutSeed)%30
		rng := rand.New(rand.NewSource(seed))
		keys := make([]storage.Value, int(n)%4096)
		for i := range keys {
			keys[i] = rng.Int31n(int32(domain) + 1)
		}
		var tr *Tree
		if merged {
			tr = buildMerged(keys, rng.Intn(len(keys)+1), 1+rng.Intn(3), fanout)
		} else {
			tr = Build(storage.NewColumn("v", keys), fanout)
		}
		checkRange(t, fmt.Sprintf("fanout %d merged %v", fanout, merged), tr, keys, lo, hi)
	})
}

// BenchmarkRangeCount shows the count does not grow with the result: a
// 0.01% range and a 50% range of a 2M-entry tree both take two descents,
// where a leaf walk would differ by the result size.
func BenchmarkRangeCount(b *testing.B) {
	const n, domain = 2_000_000, int32(1 << 24)
	tr := Build(randomColumn(13, n, domain), DefaultFanout)
	for _, c := range []struct {
		name string
		sel  float64
	}{{"sel=0.01%", 0.0001}, {"sel=50%", 0.5}} {
		width := int32(c.sel * float64(domain))
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink int
			for i := 0; i < b.N; i++ {
				lo := int32(i*7919) % (domain - width)
				sink += tr.RangeCount(lo, lo+width)
			}
			_ = sink
		})
	}
}
