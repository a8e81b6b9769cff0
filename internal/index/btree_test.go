package index

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	rt "fastcolumns/internal/runtime"
	"fastcolumns/internal/storage"
)

func randomColumn(seed int64, n int, domain int32) *storage.Column {
	rng := rand.New(rand.NewSource(seed))
	data := make([]storage.Value, n)
	for i := range data {
		data[i] = rng.Int31n(domain)
	}
	return storage.NewColumn("v", data)
}

// refRange returns the rowIDs qualifying for [lo, hi], in rowID order.
func refRange(c *storage.Column, lo, hi storage.Value) []storage.RowID {
	var out []storage.RowID
	for i := 0; i < c.Len(); i++ {
		if v := c.Get(i); v >= lo && v <= hi {
			out = append(out, storage.RowID(i))
		}
	}
	return out
}

func equalIDs(a, b []storage.RowID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBuildAndSelect(t *testing.T) {
	c := randomColumn(1, 20000, 5000)
	tr := Build(c, 21)
	if tr.Len() != 20000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for _, r := range [][2]storage.Value{
		{100, 300}, {0, 4999}, {4999, 4999}, {6000, 7000}, {-5, -1}, {2500, 2500},
	} {
		got := tr.Select(r[0], r[1], nil)
		want := refRange(c, r[0], r[1])
		if !equalIDs(got, want) {
			t.Fatalf("Select(%d,%d): %d rows, want %d", r[0], r[1], len(got), len(want))
		}
	}
}

func TestSelectOutputSortedByRowID(t *testing.T) {
	c := randomColumn(2, 5000, 100) // heavy duplicates
	tr := Build(c, 8)
	out := tr.Select(10, 50, nil)
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Fatalf("Select output not in rowID order at %d", i)
		}
	}
}

func TestRangeRowIDsInKeyOrder(t *testing.T) {
	c := randomColumn(3, 3000, 1000)
	tr := Build(c, 16)
	out := tr.RangeRowIDs(100, 900, nil)
	prev := storage.Value(math.MinInt32)
	for _, id := range out {
		v := c.Get(int(id))
		if v < prev {
			t.Fatalf("leaf walk out of key order: %d after %d", v, prev)
		}
		prev = v
	}
}

func TestTreeHeightMatchesFanout(t *testing.T) {
	n := 10000
	for _, b := range []int{4, 21, 64, 250} {
		tr := Build(randomColumn(4, n, 1<<20), b)
		// Height is ~ 1 + ceil(log_b(leaves)); allow one level of slack for
		// packing effects.
		leaves := tr.Leaves()
		wantLeaves := (n + b - 1) / b
		if leaves != wantLeaves {
			t.Fatalf("b=%d: leaves=%d want %d", b, leaves, wantLeaves)
		}
		maxH := 2 + int(math.Ceil(math.Log(float64(leaves))/math.Log(float64(b))))
		if tr.Height() > maxH {
			t.Fatalf("b=%d: height %d exceeds expected %d", b, tr.Height(), maxH)
		}
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(21)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if got := tr.Select(0, 100, nil); len(got) != 0 {
		t.Fatalf("empty tree Select = %v", got)
	}
	if tr.RangeCount(0, 100) != 0 {
		t.Fatal("empty tree RangeCount != 0")
	}
}

func TestInsertMatchesBulkLoad(t *testing.T) {
	c := randomColumn(5, 4000, 500)
	bulk := Build(c, 11)
	inc := New(11)
	for i := 0; i < c.Len(); i++ {
		inc.Insert(c.Get(i), storage.RowID(i))
	}
	if inc.Len() != bulk.Len() {
		t.Fatalf("incremental Len=%d bulk Len=%d", inc.Len(), bulk.Len())
	}
	for _, r := range [][2]storage.Value{{0, 499}, {100, 120}, {250, 250}} {
		a := inc.Select(r[0], r[1], nil)
		b := bulk.Select(r[0], r[1], nil)
		if !equalIDs(a, b) {
			t.Fatalf("range %v: incremental %d rows, bulk %d rows", r, len(a), len(b))
		}
	}
}

func TestInsertIntoBulkLoadedTree(t *testing.T) {
	// The delta-merge path: extend a bulk-loaded index incrementally.
	c := randomColumn(6, 2000, 300)
	tr := Build(c, 21)
	extra := []storage.Value{50, 299, 0, 150}
	for i, v := range extra {
		tr.Insert(v, storage.RowID(2000+i))
	}
	if tr.Len() != 2004 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := tr.Select(150, 150, nil)
	want := refRange(c, 150, 150)
	want = append(want, 2003)
	if !equalIDs(got, want) {
		t.Fatalf("post-insert Select(150,150) = %v, want %v", got, want)
	}
}

func TestRangeCountAgreesWithSelect(t *testing.T) {
	c := randomColumn(7, 10000, 2000)
	tr := Build(c, 21)
	for _, r := range [][2]storage.Value{{0, 1999}, {500, 600}, {1999, 1999}, {5000, 5100}} {
		if got, want := tr.RangeCount(r[0], r[1]), len(tr.Select(r[0], r[1], nil)); got != want {
			t.Fatalf("RangeCount(%v) = %d, Select size = %d", r, got, want)
		}
	}
}

// TestSharedSelect pins a batch of narrow, point, empty ({20000, 30000}
// lies past the domain) and whole-domain ranges to the reference, from
// a default-sized pool up to more workers than queries.
func TestSharedSelect(t *testing.T) {
	c := randomColumn(9, 30000, 10000)
	tr := Build(c, 21)
	ranges := [][2]storage.Value{
		{0, 100}, {5000, 5200}, {9999, 9999}, {20000, 30000}, {0, 9999},
	}
	for _, workers := range []int{0, 1, 3, 16} {
		pool := rt.NewPool(workers, nil)
		res, err := tr.SharedSelectContext(context.Background(), pool, rt.NewArena(0, nil), ranges, nil)
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.RowIDs) != len(ranges) {
			t.Fatalf("got %d result sets", len(res.RowIDs))
		}
		for qi, r := range ranges {
			want := refRange(c, r[0], r[1])
			if !equalIDs(res.RowIDs[qi], want) {
				t.Fatalf("workers=%d query %d disagrees", workers, qi)
			}
		}
		res.Release()
	}
}

// TestSharedSelectContextPooled pins the morsel probe path to the
// reference, with one pool and arena shared across rounds and results
// released between them — a double-owned buffer would corrupt a later
// round.
func TestSharedSelectContextPooled(t *testing.T) {
	c := randomColumn(11, 30000, 10000)
	tr := Build(c, 21)
	ranges := [][2]storage.Value{
		{0, 100}, {5000, 5200}, {9999, 9999}, {20000, 30000}, {0, 9999}, {7, 3},
	}
	pool := rt.NewPool(3, nil)
	defer pool.Close()
	arena := rt.NewArena(0, nil)
	hints := []int{10, 10, 10, 0, 30000, 0}
	for round := 0; round < 5; round++ {
		res, err := tr.SharedSelectContext(context.Background(), pool, arena, ranges, hints)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.RowIDs) != len(ranges) {
			t.Fatalf("got %d result sets", len(res.RowIDs))
		}
		for qi, r := range ranges {
			if !equalIDs(res.RowIDs[qi], refRange(c, r[0], r[1])) {
				t.Fatalf("round %d query %d disagrees", round, qi)
			}
		}
		res.Release()
	}

	// Cancellation before dispatch answers nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.SharedSelectContext(ctx, pool, arena, ranges, nil); err == nil {
		t.Fatal("pre-cancelled context did not error")
	}
}

func TestBuildFromSortedValidates(t *testing.T) {
	if _, err := BuildFromSorted([]storage.Value{5, 3}, []storage.RowID{0, 1}, 8); err == nil {
		t.Fatal("unsorted keys accepted")
	}
	// Equal keys with descending rowIDs violate the tie order.
	if _, err := BuildFromSorted([]storage.Value{4, 4}, []storage.RowID{2, 1}, 8); err == nil {
		t.Fatal("descending tie rowIDs accepted")
	}
}

func TestBuildFromSortedTiesByRowID(t *testing.T) {
	keys := []storage.Value{1, 1, 1, 2}
	ids := []storage.RowID{3, 7, 9, 1}
	tr, err := BuildFromSorted(keys, ids, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.RangeRowIDs(1, 1, nil)
	if !equalIDs(got, []storage.RowID{3, 7, 9}) {
		t.Fatalf("duplicate-key walk = %v", got)
	}
}

func TestTreeQuickProperty(t *testing.T) {
	// Any random column, any range: the index agrees with the reference
	// filter, for both bulk-loaded and insert-built trees.
	f := func(seed int64, loRaw, hiRaw int16, fanoutSeed uint8) bool {
		fanout := 3 + int(fanoutSeed)%60
		c := randomColumn(seed, 1500, 1<<12)
		lo, hi := storage.Value(loRaw), storage.Value(hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		want := refRange(c, lo, hi)
		bulk := Build(c, fanout)
		if !equalIDs(bulk.Select(lo, hi, nil), want) {
			return false
		}
		inc := New(fanout)
		for i := 0; i < c.Len(); i++ {
			inc.Insert(c.Get(i), storage.RowID(i))
		}
		return equalIDs(inc.Select(lo, hi, nil), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLeafChainCoversAllEntries(t *testing.T) {
	c := randomColumn(10, 7777, 1<<15)
	tr := Build(c, 13)
	var walked []storage.Value
	all := tr.RangeRowIDs(math.MinInt32, math.MaxInt32, nil)
	if len(all) != c.Len() {
		t.Fatalf("full walk visited %d entries, want %d", len(all), c.Len())
	}
	for _, id := range all {
		walked = append(walked, c.Get(int(id)))
	}
	if !sort.SliceIsSorted(walked, func(i, j int) bool { return walked[i] < walked[j] }) {
		t.Fatal("full leaf walk not in key order")
	}
}
