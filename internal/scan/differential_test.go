package scan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fastcolumns/internal/storage"
)

// Differential property suite: every scan kernel and block source in
// this package — naive, predicated, unrolled, shared, strided, packed,
// and zonemap-pruned — must select exactly the same rowID set for the
// same data and predicate. Sources are walked by the test-only sweep
// (source_test.go); the pass driver that walks them in the engine is
// pinned to the same reference in internal/coop. The reference implementation is the obviously
// correct branch-per-tuple filter; everything else is an optimization of
// it, and any divergence is a bug by definition (nil and empty results
// are the same answer: no qualifying tuples).

// refFilter is the specification: one branch per tuple, append on match.
func refFilter(data []storage.Value, p Predicate) []storage.RowID {
	var out []storage.RowID
	for i, v := range data {
		if p.Matches(v) {
			out = append(out, storage.RowID(i))
		}
	}
	return out
}

func sameIDs(t *testing.T, kernel string, got, want []storage.RowID) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: got %d rowIDs, want %d", kernel, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: rowID[%d] = %d, want %d", kernel, i, got[i], want[i])
			return
		}
	}
}

// diffCase is one (data, predicates) instance of the property.
type diffCase struct {
	name  string
	data  []storage.Value
	preds []Predicate
}

// corpusPreds covers the predicate edge cases for a value domain
// [0, domain): points that hit and miss, inverted (Lo > Hi) ranges that
// must select nothing, the full int32 domain that must select everything,
// and narrow/wide/boundary ranges.
func corpusPreds(domain storage.Value) []Predicate {
	if domain <= 0 {
		domain = 1
	}
	return []Predicate{
		{Lo: 0, Hi: domain - 1},                // whole domain
		{Lo: math.MinInt32, Hi: math.MaxInt32}, // full int32 range
		{Lo: domain / 4, Hi: domain / 2},       // interior range
		{Lo: domain / 3, Hi: domain / 3},       // point, likely present
		{Lo: domain + 100, Hi: domain + 100},   // point, absent
		{Lo: domain / 2, Hi: domain / 4},       // inverted: empty
		{Lo: 10, Hi: 5},                        // inverted small
		{Lo: -1000, Hi: -1},                    // below the domain
		{Lo: domain, Hi: 2 * domain},           // above the domain
		{Lo: 0, Hi: 0},                         // boundary point
		{Lo: domain - 1, Hi: math.MaxInt32},    // upper boundary onward
	}
}

// corpus builds the fixed differential corpus: empty, single-tuple, and
// larger blocks in uniform, constant, sorted, and adversarial patterns,
// all over a small domain so the compressed twin stays buildable and
// point predicates actually hit.
func corpus() []diffCase {
	rng := rand.New(rand.NewSource(42))
	const domain = 4096
	mk := func(n int, gen func(i int) storage.Value) []storage.Value {
		d := make([]storage.Value, n)
		for i := range d {
			d[i] = gen(i)
		}
		return d
	}
	uniform := func(i int) storage.Value { return storage.Value(rng.Intn(domain)) }
	shapes := []diffCase{
		{name: "empty", data: nil},
		{name: "one_hit", data: []storage.Value{domain / 3}},
		{name: "one_miss", data: []storage.Value{domain - 1}},
		{name: "small_uniform", data: mk(5, uniform)},
		{name: "block_uniform", data: mk(100, uniform)},
		{name: "multi_block_uniform", data: mk(1000, uniform)},
		{name: "large_uniform", data: mk(16384, uniform)},
		{name: "all_equal", data: mk(777, func(int) storage.Value { return domain / 2 })},
		{name: "sorted", data: mk(1000, func(i int) storage.Value { return storage.Value(i % domain) })},
		{name: "reverse_sorted", data: mk(1000, func(i int) storage.Value { return storage.Value(domain - 1 - i%domain) })},
		{name: "clustered", data: mk(2048, func(i int) storage.Value { return storage.Value((i / 256) * 512) })},
		{name: "unroll_tail_7", data: mk(7, uniform)},   // below the 8-lane unroll
		{name: "unroll_edge_8", data: mk(8, uniform)},   // exactly one unrolled group
		{name: "unroll_tail_17", data: mk(17, uniform)}, // groups plus a tail
	}
	for i := range shapes {
		shapes[i].preds = corpusPreds(domain)
	}
	return shapes
}

// TestDifferentialScanKernels runs every kernel against the reference on
// the full corpus, per predicate and — for the shared kernels — per
// whole batch, with deliberately awkward block sizes and worker counts.
func TestDifferentialScanKernels(t *testing.T) {
	for _, tc := range corpus() {
		t.Run(tc.name, func(t *testing.T) {
			col := storage.NewColumn("v", tc.data)
			want := make([][]storage.RowID, len(tc.preds))
			for i, p := range tc.preds {
				want[i] = refFilter(tc.data, p)
			}

			// Single-predicate kernels.
			for i, p := range tc.preds {
				name := fmt.Sprintf("pred%d", i)
				sameIDs(t, name+"/Scan", Scan(tc.data, p, 0, nil), want[i])
				sameIDs(t, name+"/ScanBranching", ScanBranching(tc.data, p, nil), want[i])
				sameIDs(t, name+"/ScanUnrolled", ScanUnrolled(tc.data, p, 0, nil), want[i])
				sameIDs(t, name+"/Raw", sweep1(t, NewRaw(tc.data, 0, nil), p), want[i])
			}

			// Shared batch kernels, at block sizes that do and do not
			// divide the data evenly (7 forces ragged final blocks).
			for _, block := range []int{0, 7, 64} {
				tag := fmt.Sprintf("block%d", block)
				got := Shared(tc.data, tc.preds, block)
				for i := range tc.preds {
					sameIDs(t, fmt.Sprintf("Shared/%s/pred%d", tag, i), got[i], want[i])
				}
				gp := sweep(t, NewRaw(tc.data, block, nil), tc.preds)
				for i := range tc.preds {
					sameIDs(t, fmt.Sprintf("Raw/%s/pred%d", tag, i), gp[i], want[i])
				}
			}

			// Compressed twin (buildable: small domain, non-empty column).
			if cc, err := storage.Compress(col); err == nil {
				for _, block := range []int{0, 7} {
					got := sweep(t, NewPacked(cc, block, nil), tc.preds)
					for i := range tc.preds {
						sameIDs(t, fmt.Sprintf("Packed/block%d/pred%d", block, i), got[i], want[i])
					}
				}
				for i, p := range tc.preds {
					sameIDs(t, fmt.Sprintf("Packed/pred%d", i), sweep1(t, NewPacked(cc, 0, nil), p), want[i])
				}
			}

			// Zonemap-assisted skipping at zone sizes that exercise both
			// skipped and checked zones.
			for _, zs := range []int{8, 100} {
				z := storage.BuildZonemap(col, zs)
				if z == nil {
					continue
				}
				got := sweep(t, NewRaw(tc.data, 64, z), tc.preds)
				for i := range tc.preds {
					sameIDs(t, fmt.Sprintf("Raw+zonemap/zs%d/pred%d", zs, i), got[i], want[i])
					sameIDs(t, fmt.Sprintf("Raw+zonemap/single/zs%d/pred%d", zs, i),
						sweep1(t, NewRaw(tc.data, 7, z), tc.preds[i]), want[i])
				}
			}
		})
	}
}

// TestDifferentialStridedKernels pins the column-group (hybrid layout)
// scan to the same property: a strided member must select exactly what a
// contiguous copy of the attribute selects.
func TestDifferentialStridedKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 5, 100, 1000} {
		a := make([]storage.Value, n)
		b := make([]storage.Value, n)
		for i := 0; i < n; i++ {
			a[i] = storage.Value(rng.Intn(512))
			b[i] = storage.Value(rng.Intn(512))
		}
		g, err := storage.NewColumnGroup([]string{"a", "b"}, [][]storage.Value{a, b})
		if err != nil {
			t.Fatalf("group(n=%d): %v", n, err)
		}
		col := g.Column("b")
		preds := corpusPreds(512)
		want := make([][]storage.RowID, len(preds))
		for i, p := range preds {
			want[i] = refFilter(b, p)
		}
		for i, p := range preds {
			sameIDs(t, fmt.Sprintf("n%d/Strided/single/pred%d", n, i),
				sweep1(t, NewStrided(col, 0, nil), p), want[i])
		}
		for _, block := range []int{0, 7} {
			got := sweep(t, NewStrided(col, block, nil), preds)
			for i := range preds {
				sameIDs(t, fmt.Sprintf("n%d/Strided/block%d/pred%d", n, block, i),
					got[i], want[i])
			}
		}
	}
}

// TestDifferentialRandomized hammers the property with randomized data
// and predicates under a fixed seed, so a failure reproduces exactly.
func TestDifferentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20170514)) // the paper's SIGMOD year+day
	for round := 0; round < 40; round++ {
		n := rng.Intn(3000)
		domain := 1 + rng.Intn(8192)
		data := make([]storage.Value, n)
		for i := range data {
			data[i] = storage.Value(rng.Intn(domain))
		}
		q := 1 + rng.Intn(12)
		preds := make([]Predicate, q)
		for i := range preds {
			lo := storage.Value(rng.Intn(domain*2)) - storage.Value(domain/2)
			hi := lo + storage.Value(rng.Intn(domain))
			if rng.Intn(8) == 0 {
				lo, hi = hi+1, lo // occasionally inverted
			}
			preds[i] = Predicate{Lo: lo, Hi: hi}
		}
		want := make([][]storage.RowID, q)
		for i, p := range preds {
			want[i] = refFilter(data, p)
		}
		col := storage.NewColumn("v", data)
		block := []int{0, 7, 64, 1024}[rng.Intn(4)]

		for i, p := range preds {
			tag := fmt.Sprintf("round%d/pred%d", round, i)
			sameIDs(t, tag+"/Scan", Scan(data, p, 0, nil), want[i])
			sameIDs(t, tag+"/ScanUnrolled", ScanUnrolled(data, p, 0, nil), want[i])
		}
		got := sweep(t, NewRaw(data, block, nil), preds)
		for i := range preds {
			sameIDs(t, fmt.Sprintf("round%d/Raw/pred%d", round, i), got[i], want[i])
		}
		if cc, err := storage.Compress(col); err == nil {
			gc := sweep(t, NewPacked(cc, block, nil), preds)
			gs := SharedCompressedScalar(cc, preds, block)
			for i := range preds {
				sameIDs(t, fmt.Sprintf("round%d/Packed/pred%d", round, i), gc[i], want[i])
				sameIDs(t, fmt.Sprintf("round%d/SharedCompressedScalar/pred%d", round, i), gs[i], want[i])
			}
		}
		z := storage.BuildZonemap(col, 1+rng.Intn(200))
		if z != nil {
			gz := sweep(t, NewRaw(data, block, z), preds)
			for i := range preds {
				sameIDs(t, fmt.Sprintf("round%d/Raw+zonemap/pred%d", round, i), gz[i], want[i])
			}
		}
	}
}
