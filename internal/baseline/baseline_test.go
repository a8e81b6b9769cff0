package baseline

import (
	"context"
	"math/rand"
	"testing"

	"fastcolumns/internal/scan"
	"fastcolumns/internal/storage"
)

func values(seed int64, n int, domain int32) []storage.Value {
	rng := rand.New(rand.NewSource(seed))
	out := make([]storage.Value, n)
	for i := range out {
		out[i] = rng.Int31n(domain)
	}
	return out
}

func ref(data []storage.Value, p scan.Predicate) []storage.RowID {
	var out []storage.RowID
	for i, v := range data {
		if p.Matches(v) {
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

func TestRowStoreScanCorrect(t *testing.T) {
	data := values(1, 20000, 5000)
	rs, err := NewRowStore("d", data, false)
	if err != nil {
		t.Fatal(err)
	}
	p := scan.Predicate{Lo: 100, Hi: 400}
	ids, _ := rs.Scan(p)
	if !equalIDs(ids, ref(data, p)) {
		t.Fatal("row-store scan disagrees with reference")
	}
	if rs.HasIndex() {
		t.Fatal("index built without being requested")
	}
}

func TestRowStoreIndexSelectCorrect(t *testing.T) {
	data := values(2, 20000, 5000)
	rs, err := NewRowStore("d", data, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.HasIndex() {
		t.Fatal("index missing")
	}
	p := scan.Predicate{Lo: 4000, Hi: 4100}
	ids, _ := rs.IndexSelect(p)
	if !equalIDs(ids, ref(data, p)) {
		t.Fatal("row-store index select disagrees with reference")
	}
}

func TestRowStoreWithoutIndexReturnsNil(t *testing.T) {
	data := values(3, 100, 50)
	rs, _ := NewRowStore("d", data, false)
	if ids, _ := rs.IndexSelect(scan.Predicate{Lo: 0, Hi: 50}); ids != nil {
		t.Fatal("IndexSelect without an index should return nil")
	}
}

func TestColumnScanCorrect(t *testing.T) {
	data := values(4, 50000, 10000)
	p := scan.Predicate{Lo: 0, Hi: 500}
	got, err := ColumnScan(context.Background(), data, p)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(got, ref(data, p)) {
		t.Fatal("column scan disagrees with reference")
	}
}

func TestRowStoreIsWide(t *testing.T) {
	// The whole point of the baseline: its rows are RowWidth attributes
	// wide so scans drag ~16x the bytes of a columnar scan.
	data := values(5, 100, 50)
	rs, _ := NewRowStore("d", data, false)
	if got := rs.group.Width(); got != RowWidth {
		t.Fatalf("row width %d, want %d", got, RowWidth)
	}
}
