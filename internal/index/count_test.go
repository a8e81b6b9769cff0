package index

import (
	"math"
	"math/rand"
	"testing"

	"fastcolumns/internal/storage"
)

// checkCounts verifies every internal node's cumulative counts against
// the entries actually under its children, and returns the subtree size.
func checkCounts(t *testing.T, n *node) int {
	t.Helper()
	if n.leaf {
		return len(n.keys)
	}
	if len(n.counts) != len(n.children)+1 || n.counts[0] != 0 {
		t.Fatalf("node %d: counts %v for %d children", n.id, n.counts, len(n.children))
	}
	total := 0
	for i, c := range n.children {
		total += checkCounts(t, c)
		if n.counts[i+1] != total {
			t.Fatalf("node %d: counts[%d] = %d, want %d", n.id, i+1, n.counts[i+1], total)
		}
	}
	return total
}

// walkCount counts [lo, hi] the way RangeCount used to: a leaf walk.
func walkCount(tr *Tree, lo, hi storage.Value) int {
	return len(tr.RangeRowIDs(lo, hi, nil))
}

// countedTrees builds the trees the property runs over: bulk-loaded,
// insert-built in random order, and bulk-loaded then extended by inserts
// (the delta-merge path), all over a small domain so duplicate runs span
// many leaves and straddle splits.
func countedTrees(seed int64, n int, domain int32, fanout int) map[string]*Tree {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]storage.Value, n)
	for i := range keys {
		keys[i] = rng.Int31n(domain)
	}
	col := storage.NewColumn("v", keys)
	bulk := Build(col, fanout)

	inc := New(fanout)
	for _, i := range rng.Perm(n) {
		inc.Insert(keys[i], storage.RowID(i))
	}

	merged := Build(storage.NewColumn("v", keys[:n/2]), fanout)
	for i := n / 2; i < n; i++ {
		merged.Insert(keys[i], storage.RowID(i))
	}
	return map[string]*Tree{"bulk": bulk, "insert": inc, "merge": merged}
}

// TestRangeCountMatchesLeafWalk is the counted tree's property: for
// random ranges — inverted, open below at MinInt32, open above at
// MaxInt32 — the two-descent count equals the leaf walk, at fanout 3
// (a split on nearly every insert) and the default 21. Domain 1 is the
// extreme duplicate case: every separator equals the one key.
func TestRangeCountMatchesLeafWalk(t *testing.T) {
	for _, fanout := range []int{3, 21} {
		for _, domain := range []int32{1, 7, 200, 1 << 20} {
			trees := countedTrees(int64(fanout)*int64(domain), 3000, domain, fanout)
			rng := rand.New(rand.NewSource(int64(domain)))
			for name, tr := range trees {
				if got := checkCounts(t, tr.root); got != tr.Len() {
					t.Fatalf("fanout %d domain %d %s: root holds %d entries, Len %d", fanout, domain, name, got, tr.Len())
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
					if got, want := tr.RangeCount(r[0], r[1]), walkCount(tr, r[0], r[1]); got != want {
						t.Fatalf("fanout %d domain %d %s: RangeCount(%d, %d) = %d, leaf walk %d",
							fanout, domain, name, r[0], r[1], got, want)
					}
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

// FuzzRangeCount cross-checks the two-descent count against the leaf
// walk and a filter over the keys, on trees built both ways.
func FuzzRangeCount(f *testing.F) {
	f.Add(int64(1), uint16(500), uint16(10), uint8(0), int32(3), int32(6), false)
	f.Add(int64(2), uint16(2000), uint16(1), uint8(18), int32(0), int32(0), true)
	f.Add(int64(3), uint16(64), uint16(1000), uint8(1), int32(math.MinInt32), int32(500), true)
	f.Add(int64(4), uint16(300), uint16(50), uint8(5), int32(40), int32(math.MaxInt32), false)
	f.Add(int64(5), uint16(300), uint16(50), uint8(5), int32(9), int32(2), true) // lo > hi
	f.Add(int64(6), uint16(0), uint16(50), uint8(5), int32(0), int32(10), true)  // empty tree
	f.Fuzz(func(t *testing.T, seed int64, n, domain uint16, fanoutSeed uint8, lo, hi int32, inserted bool) {
		fanout := 3 + int(fanoutSeed)%30
		rng := rand.New(rand.NewSource(seed))
		keys := make([]storage.Value, int(n)%4096)
		for i := range keys {
			keys[i] = rng.Int31n(int32(domain) + 1)
		}
		var tr *Tree
		if inserted {
			tr = New(fanout)
			for i, k := range keys {
				tr.Insert(k, storage.RowID(i))
			}
		} else {
			tr = Build(storage.NewColumn("v", keys), fanout)
		}
		want := 0
		for _, k := range keys {
			if k >= lo && k <= hi {
				want++
			}
		}
		if got := tr.RangeCount(lo, hi); got != want || got != walkCount(tr, lo, hi) {
			t.Fatalf("RangeCount(%d, %d) = %d, filter %d, leaf walk %d", lo, hi, got, want, walkCount(tr, lo, hi))
		}
	})
}

// BenchmarkRangeCount shows the count does not grow with the result: a
// 0.01% range of a 2M-entry tree shares most of one descent, a 50% range
// takes two, so they stay within 2x of each other where a leaf walk
// would differ by the result size.
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
