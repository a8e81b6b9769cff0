package scan

import (
	"testing"

	"fastcolumns/internal/storage"
)

func compressed(t *testing.T, data []storage.Value) *storage.CompressedColumn {
	t.Helper()
	cc, err := storage.Compress(storage.NewColumn("v", data))
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

func TestCompressedMatchesPlainScan(t *testing.T) {
	data := randomData(11, 30000, 5000)
	cc := compressed(t, data)
	for _, p := range []Predicate{
		{Lo: 100, Hi: 400},
		{Lo: 0, Hi: 5000},
		{Lo: 4999, Hi: 4999},
		{Lo: 6000, Hi: 7000}, // outside domain
	} {
		got := sweep1(t, NewPacked(cc, 0, nil), p)
		want := reference(data, p)
		if !sameRowIDs(got, want) {
			t.Fatalf("compressed scan disagrees for %+v: %d vs %d rows", p, len(got), len(want))
		}
	}
}

func TestCompressedBoundsBetweenValues(t *testing.T) {
	// Bounds that are not themselves in the dictionary must still select
	// the right tuples.
	data := []storage.Value{10, 20, 30, 40, 50}
	cc := compressed(t, data)
	got := sweep1(t, NewPacked(cc, 0, nil), Predicate{Lo: 15, Hi: 45})
	if !sameRowIDs(got, []storage.RowID{1, 2, 3}) {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
	if got := sweep1(t, NewPacked(cc, 0, nil), Predicate{Lo: 21, Hi: 29}); len(got) != 0 {
		t.Fatalf("gap range returned %v", got)
	}
}

func TestPackedSourceMatchesShared(t *testing.T) {
	data := randomData(12, 40000, 3000)
	cc := compressed(t, data)
	preds := randomPreds(13, 8, 3000, 500)
	preds = append(preds, Predicate{Lo: 9000, Hi: 9999}) // no hits
	results := sweep(t, NewPacked(cc, 0, nil), preds)
	if len(results) != len(preds) {
		t.Fatalf("got %d result sets", len(results))
	}
	for qi, p := range preds {
		want := reference(data, p)
		if !sameRowIDs(results[qi], want) {
			t.Fatalf("query %d: %d vs %d rows", qi, len(results[qi]), len(want))
		}
	}
}
