package bitmap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fastcolumns/internal/storage"
)

func lowCardColumn(seed int64, n int, domain int32) (*storage.Column, []storage.Value) {
	rng := rand.New(rand.NewSource(seed))
	data := make([]storage.Value, n)
	for i := range data {
		data[i] = rng.Int31n(domain) * 3 // gaps in the domain
	}
	return storage.NewColumn("v", data), data
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

func TestBuildAndSelect(t *testing.T) {
	col, data := lowCardColumn(1, 20000, 100)
	x, err := Build(col)
	if err != nil {
		t.Fatal(err)
	}
	if x.Len() != 20000 {
		t.Fatalf("Len = %d", x.Len())
	}
	if x.Cardinality() > 100 {
		t.Fatalf("Cardinality = %d", x.Cardinality())
	}
	for _, r := range [][2]storage.Value{
		{0, 297}, {30, 60}, {31, 32}, {400, 500}, {-5, -1}, {150, 150},
	} {
		got := x.Select(r[0], r[1], nil)
		want := refIDs(data, r[0], r[1])
		if !equalIDs(got, want) {
			t.Fatalf("Select(%v): %d rows, want %d", r, len(got), len(want))
		}
		if cnt := x.Count(r[0], r[1]); cnt != len(want) {
			t.Fatalf("Count(%v) = %d, want %d", r, cnt, len(want))
		}
	}
}

func TestSelectEmitsSortedRowIDs(t *testing.T) {
	col, _ := lowCardColumn(2, 5000, 50)
	x, err := Build(col)
	if err != nil {
		t.Fatal(err)
	}
	ids := x.Select(0, 150, nil)
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("bitmap result not in ascending rowID order")
		}
	}
}

func TestDomainLimit(t *testing.T) {
	data := make([]storage.Value, MaxDomain+1)
	for i := range data {
		data[i] = storage.Value(i)
	}
	if _, err := Build(storage.NewColumn("v", data)); err == nil {
		t.Fatal("oversized domain accepted")
	}
}

func TestSharedSelect(t *testing.T) {
	col, data := lowCardColumn(3, 8000, 64)
	x, err := Build(col)
	if err != nil {
		t.Fatal(err)
	}
	ranges := [][2]storage.Value{{0, 30}, {90, 93}, {500, 600}}
	results := x.SharedSelect(ranges)
	for qi, r := range ranges {
		if !equalIDs(results[qi], refIDs(data, r[0], r[1])) {
			t.Fatalf("query %d disagrees", qi)
		}
	}
}

// TestCountDifferentialAgainstSelect pins Count, which reads per-value
// counts, to the rows Select emits from the bitmaps: on random
// low-cardinality columns with gaps between their values (one-value
// domains and domains at the int32 ends included) and ranges that are
// inverted, open at either int32 end, or wholly outside the domain.
func TestCountDifferentialAgainstSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		domain := 1 + rng.Intn(MaxDomain)
		if trial%10 == 0 {
			domain = 1
		}
		base := storage.Value(rng.Int31n(1000) - 500)
		switch trial % 3 {
		case 1:
			base = math.MinInt32
		case 2:
			base = math.MaxInt32 - 2*storage.Value(domain-1)
		}
		data := make([]storage.Value, 1+rng.Intn(700))
		for i := range data {
			data[i] = base + 2*storage.Value(rng.Intn(domain))
		}
		x, err := Build(storage.NewColumn("v", data))
		if err != nil {
			t.Fatal(err)
		}
		top := base + 2*storage.Value(domain-1)
		inside := func() storage.Value { return base + storage.Value(rng.Intn(2*domain-1)) }
		for _, r := range [][2]storage.Value{
			{base, top},
			{math.MinInt32, math.MaxInt32},
			{math.MinInt32, base},
			{top, math.MaxInt32},
			{top, base},
			{math.MaxInt32, math.MinInt32},
			{inside(), inside()},
			{inside(), inside()},
			{inside(), inside()},
		} {
			if got, want := x.Count(r[0], r[1]), len(x.Select(r[0], r[1], nil)); got != want {
				t.Fatalf("trial %d (base %d, domain %d): Count(%d, %d) = %d, Select has %d rows",
					trial, base, domain, r[0], r[1], got, want)
			}
		}
		if base > math.MinInt32 {
			if got := x.Count(math.MinInt32, base-1); got != 0 {
				t.Fatalf("trial %d: Count below the domain = %d", trial, got)
			}
		}
		if top < math.MaxInt32 {
			if got := x.Count(top+1, math.MaxInt32); got != 0 {
				t.Fatalf("trial %d: Count above the domain = %d", trial, got)
			}
		}
	}
}

// TestBitmapCountZeroAlloc guards the COUNT(*) and selectivity path:
// counting a range allocates nothing.
func TestBitmapCountZeroAlloc(t *testing.T) {
	col, _ := lowCardColumn(4, 10000, 100)
	x, err := Build(col)
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	if allocs := testing.AllocsPerRun(100, func() { sink += x.Count(30, 150) }); allocs != 0 {
		t.Fatalf("Count allocated %v times per call", allocs)
	}
	if sink == 0 {
		t.Fatal("Count found no rows")
	}
}

func TestSizeBytes(t *testing.T) {
	col, _ := lowCardColumn(5, 6400, 10)
	x, _ := Build(col)
	want := x.Cardinality() * ((6400 + 63) / 64) * 8
	if got := x.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
}

func TestQuickAgainstReference(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw uint8) bool {
		col, data := lowCardColumn(seed, 700, 40)
		lo, hi := storage.Value(loRaw), storage.Value(hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		x, err := Build(col)
		if err != nil {
			return false
		}
		return equalIDs(x.Select(lo, hi, nil), refIDs(data, lo, hi))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestWordBoundaries(t *testing.T) {
	// Rows at positions 63, 64, 127, 128 exercise the word edges.
	data := make([]storage.Value, 130)
	for _, pos := range []int{0, 63, 64, 127, 128, 129} {
		data[pos] = 7
	}
	x, err := Build(storage.NewColumn("v", data))
	if err != nil {
		t.Fatal(err)
	}
	got := x.Select(7, 7, nil)
	want := []storage.RowID{0, 63, 64, 127, 128, 129}
	if !equalIDs(got, want) {
		t.Fatalf("boundary rows = %v, want %v", got, want)
	}
}
