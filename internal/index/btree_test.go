package index

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
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
	tr := Build(storage.NewColumn("v", nil), 21)
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

// TestInsertMatchesBulkLoad inserts every entry through merges — into
// an empty tree, in four chunks — and checks the result against a bulk
// load of the same column.
func TestInsertMatchesBulkLoad(t *testing.T) {
	c := randomColumn(5, 4000, 500)
	bulk := Build(c, 11)
	keys := make([]storage.Value, c.Len())
	for i := range keys {
		keys[i] = c.Get(i)
	}
	inc := buildMerged(keys, 0, 4, 11)
	if inc.Len() != bulk.Len() || inc.Height() != bulk.Height() {
		t.Fatalf("merged Len=%d Height=%d, bulk Len=%d Height=%d", inc.Len(), inc.Height(), bulk.Len(), bulk.Height())
	}
	for _, r := range [][2]storage.Value{{0, 499}, {100, 120}, {250, 250}} {
		a := inc.RangeRowIDs(r[0], r[1], nil)
		b := bulk.RangeRowIDs(r[0], r[1], nil)
		if !equalIDs(a, b) {
			t.Fatalf("range %v: merged %d rows, bulk %d rows", r, len(a), len(b))
		}
	}
}

func TestInsertIntoBulkLoadedTree(t *testing.T) {
	// The delta-merge path: extend a bulk-loaded index by a sorted delta.
	c := randomColumn(6, 2000, 300)
	tr := Build(c, 21)
	keys, _ := c.Raw()
	grown := tr.Merge(storage.NewColumn("v", append(keys[:2000:2000], 50, 299, 0, 150)))
	if grown.Len() != 2004 {
		t.Fatalf("Len = %d", grown.Len())
	}
	got := grown.Select(150, 150, nil)
	want := refRange(c, 150, 150)
	want = append(want, 2003)
	if !equalIDs(got, want) {
		t.Fatalf("post-merge Select(150,150) = %v, want %v", got, want)
	}
}

// TestMergeLeavesReceiverUntouched holds a tree across merges and checks
// that it answers every count, probe and trace exactly as before them:
// a reader that took the index before a delta merge keeps a consistent
// snapshot.
func TestMergeLeavesReceiverUntouched(t *testing.T) {
	for _, fanout := range []int{3, 21, 250} {
		c := randomColumn(int64(fanout), 6000, 97)
		held := Build(c, fanout)
		ranges := [][2]storage.Value{{math.MinInt32, math.MaxInt32}, {0, 0}, {10, 40}, {96, 200}, {-5, -1}}
		type answer struct {
			count  int
			ids    []storage.RowID
			events []TraceEvent
		}
		ask := func() []answer {
			var out []answer
			for _, r := range ranges {
				a := answer{count: held.RangeCount(r[0], r[1]), ids: held.RangeRowIDs(r[0], r[1], nil)}
				held.Trace(r[0], r[1], func(ev TraceEvent) { a.events = append(a.events, ev) })
				out = append(out, a)
			}
			return out
		}
		before := ask()
		keys, _ := c.Raw()
		next := held
		for m := 0; m < 3; m++ {
			keys = append(keys[:len(keys):len(keys)], 0, 10, 10, 40, 96, 300)
			next = next.Merge(storage.NewColumn("v", keys))
		}
		if next.Len() != held.Len()+18 {
			t.Fatalf("fanout %d: merged Len %d, want %d", fanout, next.Len(), held.Len()+18)
		}
		if after := ask(); !reflect.DeepEqual(before, after) {
			t.Fatalf("fanout %d: the held tree answers differently after Merge", fanout)
		}
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

func TestTreeQuickProperty(t *testing.T) {
	// Any random column, any range: the index agrees with the reference
	// filter, for both bulk-loaded and merge-built trees.
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
		keys := make([]storage.Value, c.Len())
		for i := range keys {
			keys[i] = c.Get(i)
		}
		merged := buildMerged(keys, c.Len()/3, 1+int(fanoutSeed)%3, fanout)
		return equalIDs(merged.Select(lo, hi, nil), want)
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
		t.Fatal("full leaf level not in key order")
	}
}

// TestIndexBytesPerEntry bounds the index's heap: a leaf entry is one
// key and one rowID (8 B) plus its share of the inner levels' first
// keys, so 1M uniform rows must cost at most 10 B per entry after GC.
func TestIndexBytesPerEntry(t *testing.T) {
	const n = 1_000_000
	c := randomColumn(14, n, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := Build(c, DefaultFanout)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEntry := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	runtime.KeepAlive(tr)
	runtime.KeepAlive(c) // the column is not the index's to free
	t.Logf("index heap %.2f B/entry", perEntry)
	if perEntry > 10 {
		t.Fatalf("index heap is %.1f B/entry, want <= 10", perEntry)
	}
}
