package imprints

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fastcolumns/internal/storage"
)

func uniform(seed int64, n int, domain int32) []storage.Value {
	rng := rand.New(rand.NewSource(seed))
	data := make([]storage.Value, n)
	for i := range data {
		data[i] = rng.Int31n(domain)
	}
	return data
}

func clustered(seed int64, n int, domain int32) []storage.Value {
	data := uniform(seed, n, domain)
	sort.Slice(data, func(i, j int) bool { return data[i] < data[j] })
	return data
}

func refIDs(data []storage.Value, lo, hi storage.Value) []storage.RowID {
	var out []storage.RowID
	for i, v := range data {
		if v >= lo && v <= hi {
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

// scanAll is the whole-column imprint scan.
func scanAll(x *Index, data []storage.Value, lo, hi storage.Value, out []storage.RowID) []storage.RowID {
	return x.ScanRows(data, 0, len(data), lo, hi, out)
}

func TestSelectMatchesReference(t *testing.T) {
	for name, data := range map[string][]storage.Value{
		"uniform":   uniform(1, 30000, 1<<20),
		"clustered": clustered(2, 30000, 1<<20),
	} {
		x, err := Build(storage.NewColumn("v", data))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]storage.Value{
			{0, 1 << 14}, {1 << 19, 1<<19 + 1<<15}, {1 << 21, 1 << 22}, {500, 500},
		} {
			got := scanAll(x, data, r[0], r[1], nil)
			want := refIDs(data, r[0], r[1])
			if !equalIDs(got, want) {
				t.Fatalf("%s range %v: %d rows, want %d", name, r, len(got), len(want))
			}
		}
	}
}

func TestClusteredDataCompressesAndSkips(t *testing.T) {
	data := clustered(3, 64000, 1<<20)
	x, err := Build(storage.NewColumn("v", data))
	if err != nil {
		t.Fatal(err)
	}
	lines := (len(data) + LineValues - 1) / LineValues
	// Sorted data: long runs of identical imprints, so RLE must compress
	// far below one entry per line.
	if x.Entries() > lines/4 {
		t.Fatalf("RLE ineffective on sorted data: %d entries for %d lines", x.Entries(), lines)
	}
	// A narrow query on sorted data checks a small fraction of lines.
	frac := x.CheckedFraction(1000, 3000)
	if frac > 0.10 {
		t.Fatalf("narrow query checks %.2f of a sorted column", frac)
	}
}

func TestUniformDataSkipsLittle(t *testing.T) {
	// On random data nearly every line holds values from many bins; wide
	// queries check almost everything (the structure's documented limit).
	data := uniform(4, 32000, 1<<20)
	x, err := Build(storage.NewColumn("v", data))
	if err != nil {
		t.Fatal(err)
	}
	frac := x.CheckedFraction(0, 1<<19)
	if frac < 0.5 {
		t.Fatalf("random data should not skip a 50%% query: checked %.2f", frac)
	}
}

func TestCheckedFractionBounds(t *testing.T) {
	data := clustered(5, 10000, 1<<16)
	x, _ := Build(storage.NewColumn("v", data))
	if got := x.CheckedFraction(10, 5); got != 0 {
		t.Fatalf("inverted range checked %v", got)
	}
	if got := x.CheckedFraction(0, 1<<16); got < 0.99 {
		t.Fatalf("full range should check everything, got %v", got)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(storage.NewColumn("v", nil)); err == nil {
		t.Fatal("empty column accepted")
	}
	g, _ := storage.NewColumnGroup([]string{"a", "b"}, [][]storage.Value{{1}, {2}})
	if _, err := Build(g.Column("a")); err == nil {
		t.Fatal("strided column accepted")
	}
}

// TestPrunesIsSoundAndSkips pins the block-pruner contract on clustered
// data: a pruned row range never holds a qualifying value, at aligned
// and ragged range boundaries alike, and most ranges away from the
// query's cluster do prune.
func TestPrunesIsSoundAndSkips(t *testing.T) {
	data := clustered(6, 20000, 1<<18)
	x, _ := Build(storage.NewColumn("v", data))
	for _, r := range [][2]storage.Value{{0, 100}, {1 << 17, 1<<17 + 5000}, {1 << 19, 1 << 20}, {500, 100}} {
		pruned, total := 0, 0
		for _, width := range []int{16, 100, 1024} {
			for lo := 0; lo < len(data); lo += width {
				hi := min(lo+width, len(data))
				total++
				if !x.Prunes(lo, hi, r[0], r[1]) {
					continue
				}
				pruned++
				for i := lo; i < hi; i++ {
					if data[i] >= r[0] && data[i] <= r[1] {
						t.Fatalf("range %v: rows [%d,%d) pruned but row %d = %d qualifies", r, lo, hi, i, data[i])
					}
				}
			}
		}
		if pruned*2 < total {
			t.Fatalf("range %v: only %d of %d row ranges pruned on clustered data", r, pruned, total)
		}
	}
}

// TestScanRowsBlockwise pins the row-scanner contract a raw source
// relies on: scanning a column block by block — aligned, ragged and
// sub-line block widths alike — appends exactly the reference rows in
// order, and never reads outside the block.
func TestScanRowsBlockwise(t *testing.T) {
	for name, data := range map[string][]storage.Value{
		"uniform":   uniform(7, 20000, 1<<18),
		"clustered": clustered(8, 20000, 1<<18),
	} {
		x, _ := Build(storage.NewColumn("v", data))
		for _, r := range [][2]storage.Value{{0, 100}, {1 << 17, 1<<17 + 5000}, {0, 1 << 18}, {500, 100}} {
			want := refIDs(data, r[0], r[1])
			for _, width := range []int{7, 16, 100, 1024, len(data)} {
				var got []storage.RowID
				for lo := 0; lo < len(data); lo += width {
					before := len(got)
					got = x.ScanRows(data, lo, min(lo+width, len(data)), r[0], r[1], got)
					for _, id := range got[before:] {
						if int(id) < lo || int(id) >= lo+width {
							t.Fatalf("%s range %v width %d: row %d outside block [%d,%d)", name, r, width, id, lo, lo+width)
						}
					}
				}
				if !equalIDs(got, want) {
					t.Fatalf("%s range %v width %d: %d rows, want %d", name, r, width, len(got), len(want))
				}
			}
		}
	}
}

// TestBuildTinyColumn: fewer values than histogram bins must still
// build (and prune soundly).
func TestBuildTinyColumn(t *testing.T) {
	data := []storage.Value{7, 3, 9}
	x, err := Build(storage.NewColumn("v", data))
	if err != nil {
		t.Fatal(err)
	}
	if x.Prunes(0, 3, 3, 3) || x.Prunes(0, 3, 9, 9) {
		t.Fatal("pruned a range holding a qualifying value")
	}
	if !equalIDs(scanAll(x, data, 3, 7, nil), refIDs(data, 3, 7)) {
		t.Fatal("select over a tiny column disagrees")
	}
}

func TestQuickProperty(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw int16, sortIt bool) bool {
		var data []storage.Value
		if sortIt {
			data = clustered(seed, 2000, 1<<14)
		} else {
			data = uniform(seed, 2000, 1<<14)
		}
		lo, hi := storage.Value(loRaw), storage.Value(hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		x, err := Build(storage.NewColumn("v", data))
		if err != nil {
			return false
		}
		return equalIDs(scanAll(x, data, lo, hi, nil), refIDs(data, lo, hi))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestConstantColumn(t *testing.T) {
	data := make([]storage.Value, 1000)
	for i := range data {
		data[i] = 42
	}
	x, err := Build(storage.NewColumn("v", data))
	if err != nil {
		t.Fatal(err)
	}
	if got := scanAll(x, data, 42, 42, nil); len(got) != 1000 {
		t.Fatalf("constant column select found %d rows", len(got))
	}
	if got := scanAll(x, data, 43, 100, nil); len(got) != 0 {
		t.Fatalf("out-of-domain select found %d rows", len(got))
	}
	if x.Entries() != 1 {
		t.Fatalf("constant column should RLE to one entry, got %d", x.Entries())
	}
}
