package scan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastcolumns/internal/storage"
)

func randomData(seed int64, n int, domain int32) []storage.Value {
	rng := rand.New(rand.NewSource(seed))
	data := make([]storage.Value, n)
	for i := range data {
		data[i] = rng.Int31n(domain)
	}
	return data
}

// reference is the trivially correct selection.
func reference(data []storage.Value, p Predicate) []storage.RowID {
	var out []storage.RowID
	for i, v := range data {
		if p.Matches(v) {
			out = append(out, storage.RowID(i))
		}
	}
	return out
}

func sameRowIDs(a, b []storage.RowID) bool {
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

func TestScanKernelsAgree(t *testing.T) {
	data := randomData(1, 10007, 1000) // odd size exercises the unroll tail
	preds := []Predicate{
		{Lo: 100, Hi: 200},
		{Lo: 0, Hi: 999},     // everything
		{Lo: 2000, Hi: 3000}, // nothing
		{Lo: 500, Hi: 500},   // point
		{Lo: -10, Hi: 50},
	}
	for _, p := range preds {
		want := reference(data, p)
		for name, got := range map[string][]storage.RowID{
			"Scan":      Scan(data, p, 0, nil),
			"Branching": ScanBranching(data, p, nil),
			"Unrolled":  ScanUnrolled(data, p, 0, nil),
			"Raw":       sweep1(t, NewRaw(data, 0, nil), p),
		} {
			if !sameRowIDs(got, want) {
				t.Fatalf("%s disagrees with reference for %+v: got %d rows, want %d",
					name, p, len(got), len(want))
			}
		}
	}
}

func TestScanAppendsToExistingBuffer(t *testing.T) {
	data := []storage.Value{1, 5, 3}
	out := []storage.RowID{99}
	got := Scan(data, Predicate{Lo: 3, Hi: 5}, 0, out)
	want := []storage.RowID{99, 1, 2}
	if !sameRowIDs(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestScanEmptyInput(t *testing.T) {
	if got := Scan(nil, Predicate{Lo: 0, Hi: 10}, 0, nil); len(got) != 0 {
		t.Fatalf("scan of empty input returned %v", got)
	}
	if got := ScanUnrolled(nil, Predicate{Lo: 0, Hi: 10}, 0, nil); len(got) != 0 {
		t.Fatalf("unrolled scan of empty input returned %v", got)
	}
}

func TestStridedSource(t *testing.T) {
	g, err := storage.NewColumnGroup(
		[]string{"a", "b"},
		[][]storage.Value{{1, 2, 3, 4}, {10, 20, 30, 40}},
	)
	if err != nil {
		t.Fatal(err)
	}
	got := sweep1(t, NewStrided(g.Column("b"), 0, nil), Predicate{Lo: 20, Hi: 30})
	if !sameRowIDs(got, []storage.RowID{1, 2}) {
		t.Fatalf("strided scan = %v", got)
	}
	// Blocks emit relation-absolute rowIDs.
	got = sweep1(t, NewStrided(g.Column("b"), 3, nil), Predicate{Lo: 40, Hi: 40})
	if !sameRowIDs(got, []storage.RowID{3}) {
		t.Fatalf("strided scan of the second block = %v", got)
	}
}

func TestScanUnrolledWithBase(t *testing.T) {
	got := ScanUnrolled([]storage.Value{5, 6, 7}, Predicate{Lo: 6, Hi: 7}, 1000, nil)
	if !sameRowIDs(got, []storage.RowID{1001, 1002}) {
		t.Fatalf("contiguous scan with base = %v", got)
	}
}

func TestScanQuickAgainstReference(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw int16, sizeSeed uint16) bool {
		n := 1 + int(sizeSeed)%4096
		data := randomData(seed, n, 1<<14)
		lo, hi := storage.Value(loRaw), storage.Value(hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		p := Predicate{Lo: lo, Hi: hi}
		want := reference(data, p)
		return sameRowIDs(Scan(data, p, 0, nil), want) &&
			sameRowIDs(ScanUnrolled(data, p, 0, nil), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPredicateMatches(t *testing.T) {
	p := Predicate{Lo: 2, Hi: 4}
	for v, want := range map[storage.Value]bool{1: false, 2: true, 3: true, 4: true, 5: false} {
		if p.Matches(v) != want {
			t.Fatalf("Matches(%d) = %v", v, !want)
		}
	}
}

func TestStridedSourceMatchesReference(t *testing.T) {
	n := 30000
	cols := make([][]storage.Value, 4)
	for j := range cols {
		cols[j] = randomData(int64(20+j), n, 1<<16)
	}
	g, err := storage.NewColumnGroup([]string{"a", "b", "c", "d"}, cols)
	if err != nil {
		t.Fatal(err)
	}
	target := g.Column("c")
	preds := randomPreds(21, 7, 1<<16, 3000)
	results := sweep(t, NewStrided(target, 1024, nil), preds)
	for qi, p := range preds {
		want := reference(cols[2], p)
		if !sameRowIDs(results[qi], want) {
			t.Fatalf("query %d disagrees (%d vs %d rows)", qi, len(results[qi]), len(want))
		}
	}
}
