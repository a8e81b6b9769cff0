package scan

import (
	"testing"

	"fastcolumns/internal/storage"
)

func TestZonemapScanMatchesPlain(t *testing.T) {
	// Clustered (sorted) data: heavy skipping, same answer.
	n := 20000
	data := make([]storage.Value, n)
	for i := range data {
		data[i] = storage.Value(i)
	}
	z := storage.BuildZonemap(storage.NewColumn("v", data), 256)
	for _, p := range []Predicate{
		{Lo: 5000, Hi: 5100},
		{Lo: 0, Hi: 19999},
		{Lo: -100, Hi: -1},
		{Lo: 19999, Hi: 19999},
	} {
		got := sweep1(t, NewRaw(data, 512, z), p)
		if !sameRowIDs(got, reference(data, p)) {
			t.Fatalf("zonemap scan disagrees for %+v", p)
		}
	}
}

func TestZonemapScanRandomData(t *testing.T) {
	data := randomData(14, 30000, 1<<20)
	z := storage.BuildZonemap(storage.NewColumn("v", data), 512)
	p := Predicate{Lo: 1000, Hi: 50000}
	if !sameRowIDs(sweep1(t, NewRaw(data, 1000, z), p), reference(data, p)) {
		t.Fatal("zonemap scan on random data disagrees")
	}
}

func TestZonemapPrunedBatchMatchesShared(t *testing.T) {
	n := 50000
	data := make([]storage.Value, n)
	for i := range data {
		data[i] = storage.Value(i)
	}
	z := storage.BuildZonemap(storage.NewColumn("v", data), 512)
	preds := []Predicate{
		{Lo: 100, Hi: 300},
		{Lo: 40000, Hi: 41000},
		{Lo: 100000, Hi: 100010}, // empty
		{Lo: 0, Hi: 49999},       // everything
	}
	results := sweep(t, NewRaw(data, 512, z), preds)
	for qi, p := range preds {
		if !sameRowIDs(results[qi], reference(data, p)) {
			t.Fatalf("query %d disagrees", qi)
		}
	}
}

// halfScanner is a RowScanner that knows the top half of every 32-row
// stripe holds no match: it prunes nothing at block level and scans only
// the bottom halves, recording the rows it touched.
type halfScanner struct{ touched int }

func (h *halfScanner) Prunes(lo, hi int, vlo, vhi storage.Value) bool { return false }

func (h *halfScanner) ScanRows(data []storage.Value, lo, hi int, vlo, vhi storage.Value, out []storage.RowID) []storage.RowID {
	for s := lo - lo%32; s < hi; s += 32 {
		from, to := max(s, lo), min(s+16, hi)
		if from < to {
			h.touched += to - from
			out = ScanUnrolled(data[from:to], Predicate{Lo: vlo, Hi: vhi}, from, out)
		}
	}
	return out
}

// TestRawDelegatesToRowScanner: a raw source whose pruner can skip
// inside a block hands it every surviving block, bounds intact, so the
// finer-than-block skipping is kept — here half the rows are never read
// and the answer is still the reference.
func TestRawDelegatesToRowScanner(t *testing.T) {
	data := make([]storage.Value, 1000)
	for i := range data {
		if i%32 < 16 {
			data[i] = storage.Value(i)
		} else {
			data[i] = -1
		}
	}
	p := Predicate{Lo: 0, Hi: 2000}
	for _, block := range []int{7, 64, 100, 0} {
		h := &halfScanner{}
		if got := sweep1(t, NewRaw(data, block, h), p); !sameRowIDs(got, reference(data, p)) {
			t.Fatalf("block %d: row-scanner sweep disagrees", block)
		}
		if want := len(reference(data, p)); h.touched != want {
			t.Fatalf("block %d: scanner touched %d rows, want %d (half the column)", block, h.touched, want)
		}
	}
}
