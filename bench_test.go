package fastcolumns

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. The CLI
// tools under cmd/ print the actual rows/series of each figure; these
// benches time the underlying operations so regressions surface in
// `go test -bench`.

import (
	"context"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"fastcolumns/internal/baseline"
	"fastcolumns/internal/bitmap"
	"fastcolumns/internal/coop"
	"fastcolumns/internal/dsl"
	"fastcolumns/internal/exec"
	"fastcolumns/internal/fit"
	"fastcolumns/internal/imprints"
	"fastcolumns/internal/index"
	"fastcolumns/internal/model"
	"fastcolumns/internal/ops"
	"fastcolumns/internal/optimizer"
	"fastcolumns/internal/persist"
	rt "fastcolumns/internal/runtime"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/simexec"
	"fastcolumns/internal/storage"
	"fastcolumns/internal/tpch"
	"fastcolumns/internal/workload"
)

const (
	benchN      = 1 << 20
	benchDomain = int32(1 << 22)
	// compDomain keeps the value domain within 16-bit dictionary codes.
	compDomain = int32(1 << 15)
)

// fixture shares the expensive data/index builds across benchmarks.
type fixture struct {
	data []storage.Value
	col  *storage.Column
	rel  *exec.Relation
	zone *storage.Zonemap
	sim  *simexec.Engine
	// Dictionary compression needs a 16-bit-codeable domain; the
	// compressed twin gets its own narrower-domain column.
	compData []storage.Value
	compCol  *storage.Column
	comp     *storage.CompressedColumn
}

var (
	fixOnce sync.Once
	fix     fixture
)

// benchPass runs one unpublished scan pass over src on the default pool.
func benchPass(b *testing.B, src coop.Source, preds []scan.Predicate) {
	b.Helper()
	if _, err := coop.Run(context.Background(), rt.Default(), nil, src, preds, nil); err != nil {
		b.Fatal(err)
	}
}

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		fix.data = workload.Uniform(1, benchN, benchDomain)
		fix.col = storage.NewColumn("v", fix.data)
		fix.rel = &exec.Relation{
			Column: fix.col,
			Index:  index.Build(fix.col, index.DefaultFanout),
		}
		var err error
		fix.compData = workload.Uniform(2, benchN, compDomain)
		fix.compCol = storage.NewColumn("c", fix.compData)
		fix.comp, err = storage.Compress(fix.compCol)
		if err != nil {
			panic(err)
		}
		fix.zone = storage.BuildZonemap(fix.col, 4096)
		fix.sim = simexec.New(model.HW1(), model.FittedDesign(), fix.data, 4)
	})
	return &fix
}

func predsFor(q int, sel float64) []scan.Predicate {
	return workload.Batch(99, q, sel, benchDomain)
}

// --- Figures 4-10 and 21: the model surfaces -------------------------------

func BenchmarkFig4To7ModelGrid(b *testing.B) {
	configs := []struct {
		name string
		d    model.Dataset
		hw   model.Hardware
		dg   model.Design
	}{
		{"fig4_ts4_hw1", model.Dataset{N: 1e8, TupleSize: 4}, model.HW1(), model.DefaultDesign()},
		{"fig5_ts2_compressed", model.Dataset{N: 1e8, TupleSize: 2}, model.HW1(), model.DefaultDesign()},
		{"fig6_ts40_group", model.Dataset{N: 1e8, TupleSize: 40}, model.HW1(), model.DefaultDesign()},
		{"fig7_hw2", model.Dataset{N: 1e8, TupleSize: 4}, model.HW2(), model.DefaultDesign()},
		{"fig21_simd_sort", model.Dataset{N: 1e8, TupleSize: 4}, model.HW1(),
			func() model.Design { d := model.DefaultDesign(); d.SIMDSortWidth = 4; return d }()},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := model.ConcurrencyGrid(c.d, c.hw, c.dg, 512, 1e-5, 0.1, 24, 24)
				_ = g.ContourCrossings(1)
			}
		})
	}
}

func BenchmarkFig8To10DataSizeGrid(b *testing.B) {
	for _, q := range []int{1, 8, 128} {
		b.Run(map[int]string{1: "fig8_q1", 8: "fig9_q8", 128: "fig10_q128"}[q], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := model.DataSizeGrid(q, 4, model.HW1(), model.DefaultDesign(),
					1e4, 1e15, 1e-5, 0.1, 24, 24)
				_ = g.ContourCrossings(1)
			}
		})
	}
}

// --- Figure 12: single-query latency by access path ------------------------

func BenchmarkFig12(b *testing.B) {
	f := getFixture(b)
	for _, sel := range []float64{0.001, 0.01, 0.1} {
		preds := predsFor(1, sel)
		b.Run("index/sel="+pctName(sel), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.RunIndex(context.Background(), f.rel, preds, exec.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("scan/sel="+pctName(sel), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.RunScan(context.Background(), f.rel, preds, exec.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 13: shared execution vs concurrency ----------------------------

func BenchmarkFig13SharedScan(b *testing.B) {
	f := getFixture(b)
	for _, q := range []int{1, 8, 64, 256} {
		preds := predsFor(q, 0.002)
		b.Run(qName(q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.RunScan(context.Background(), f.rel, preds, exec.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig13SharedIndex(b *testing.B) {
	f := getFixture(b)
	for _, q := range []int{1, 8, 64, 256} {
		preds := predsFor(q, 0.002)
		b.Run(qName(q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.RunIndex(context.Background(), f.rel, preds, exec.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 14: crossover search vs data size (simulated) ------------------

func BenchmarkFig14SimCrossover(b *testing.B) {
	f := getFixture(b)
	b.Run("q8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := f.sim.Crossover(8, benchDomain); !ok {
				b.Fatal("no crossover")
			}
		}
	})
}

// --- Figure 15: strided column-group scans ---------------------------------

func BenchmarkFig15GroupScan(b *testing.B) {
	for _, width := range []int{1, 4, 16} {
		names := make([]string, width)
		cols := make([][]storage.Value, width)
		for j := 0; j < width; j++ {
			names[j] = string(rune('a' + j))
			cols[j] = workload.Uniform(int64(j+1), benchN/4, benchDomain)
		}
		var col *storage.Column
		if width == 1 {
			col = storage.NewColumn("a", cols[0])
		} else {
			g, err := storage.NewColumnGroup(names, cols)
			if err != nil {
				b.Fatal(err)
			}
			col = g.Column("a")
		}
		rel := &exec.Relation{Column: col}
		p := []scan.Predicate{{Lo: 0, Hi: benchDomain / 100}}
		b.Run("width="+qName(width)[1:], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.RunScan(context.Background(), rel, p, exec.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 16: simulated machines vs model --------------------------------

func BenchmarkFig16MachineCrossover(b *testing.B) {
	data := workload.Uniform(1, benchN/4, benchDomain)
	for _, hw := range model.EC2Profiles() {
		eng := simexec.New(hw, model.DefaultDesign(), data, 4)
		b.Run(hw.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.Crossover(1, benchDomain)
			}
		})
	}
}

// --- Figure 17: compressed vs raw shared scans -----------------------------

func BenchmarkFig17Compression(b *testing.B) {
	f := getFixture(b)
	preds := workload.Batch(99, 16, 0.002, compDomain)
	b.Run("raw32bit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = scan.Shared(f.compData, preds, 0)
		}
	})
	b.Run("dict16bit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchPass(b, scan.NewPacked(f.comp, 0, nil), preds)
		}
	})
}

// --- Figure 18: the nine workloads through APS -----------------------------

func BenchmarkFig18Workloads(b *testing.B) {
	f := getFixture(b)
	opt := optimizer.New(model.HW1())
	for _, sp := range workload.Nine() {
		if sp.Q > 64 {
			continue // the 640-query cells run via cmd/bench; too slow per op here
		}
		preds := workload.Batch(42, sp.Q, sp.Selectivity, benchDomain)
		b.Run(sp.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := opt.Decide(f.rel, preds)
				if _, err := exec.Run(context.Background(), f.rel, d.Path, preds, exec.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 19: TPC-H Q6 engines --------------------------------------------

func BenchmarkFig19TPCH(b *testing.B) {
	l := tpch.Generate(0.01, 1)
	rowStore, err := baseline.NewRowStore("l_shipdate", l.ShipDate, true)
	if err != nil {
		b.Fatal(err)
	}
	shipCol := storage.NewColumn("l_shipdate", l.ShipDate)
	fcRel := &exec.Relation{Column: shipCol, Index: index.Build(shipCol, index.DefaultFanout)}
	opt := optimizer.New(model.HW1())
	for _, run := range []struct {
		name string
		q    tpch.Q6
	}{{"low", tpch.Q6Low()}, {"high", tpch.Q6High()}} {
		p := run.q.ShipPredicate()
		b.Run("postgres_like/"+run.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ids, _ := rowStore.Scan(p)
				run.q.Evaluate(l, ids)
			}
		})
		b.Run("pg_with_index/"+run.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ids, _ := rowStore.IndexSelect(p)
				run.q.Evaluate(l, ids)
			}
		})
		b.Run("monetdb_like/"+run.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ids, err := baseline.ColumnScan(context.Background(), l.ShipDate, p)
				if err != nil {
					b.Fatal(err)
				}
				run.q.Evaluate(l, ids)
			}
		})
		b.Run("fastcolumns/"+run.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := opt.Decide(fcRel, []scan.Predicate{p})
				res, err := exec.Run(context.Background(), fcRel, d.Path, []scan.Predicate{p}, exec.Options{})
				if err != nil {
					b.Fatal(err)
				}
				run.q.Evaluate(l, res.RowIDs[0])
			}
		})
	}
}

// --- Figure 20 / Appendix C: model fitting ---------------------------------

func BenchmarkFig20NelderMeadFit(b *testing.B) {
	f := getFixture(b)
	var obs []fit.Observation
	for _, q := range []int{1, 8, 64} {
		for _, s := range []float64{0, 0.001, 0.01} {
			preds := predsFor(q, s)
			obs = append(obs, fit.Observation{
				Q: q, Selectivity: s, N: benchN, TupleSize: 4,
				ScanSec:  f.sim.SharedScan(preds),
				IndexSec: f.sim.ConcIndex(preds),
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit.Fit(obs, model.HW1(), model.DefaultDesign()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2: historical epochs ---------------------------------------------

func BenchmarkTable2History(b *testing.B) {
	epochs := model.HistoricalEpochs()
	for i := 0; i < b.N; i++ {
		for _, e := range epochs {
			model.Crossover(1, e.Dataset, e.Hardware, e.Design)
		}
	}
}

// --- The decision itself (Section 3's microseconds claim) ------------------

func BenchmarkAPSDecision(b *testing.B) {
	f := getFixture(b)
	opt := optimizer.New(model.HW1())
	preds := predsFor(64, 0.002)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = opt.Decide(f.rel, preds)
	}
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationPredication: branch-free predicated scan vs the naive
// branching loop, at an adversarial ~50% selectivity where branch
// mispredictions hurt most.
func BenchmarkAblationPredication(b *testing.B) {
	f := getFixture(b)
	p := scan.Predicate{Lo: 0, Hi: benchDomain / 2}
	b.Run("predicated", func(b *testing.B) {
		var out []storage.RowID
		for i := 0; i < b.N; i++ {
			out = scan.Scan(f.data, p, 0, out[:0])
		}
	})
	b.Run("unrolled", func(b *testing.B) {
		var out []storage.RowID
		for i := 0; i < b.N; i++ {
			out = scan.ScanUnrolled(f.data, p, 0, out[:0])
		}
	})
	b.Run("branching", func(b *testing.B) {
		var out []storage.RowID
		for i := 0; i < b.N; i++ {
			out = scan.ScanBranching(f.data, p, out[:0])
		}
	})
}

// BenchmarkAblationSharing: one shared scan vs q independent scans.
func BenchmarkAblationSharing(b *testing.B) {
	f := getFixture(b)
	preds := predsFor(16, 0.001)
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = scan.Shared(f.data, preds, 0)
		}
	})
	b.Run("independent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range preds {
				_ = scan.ScanUnrolled(f.data, p, 0, nil)
			}
		}
	})
}

// skewedPreds builds the tentpole's skewed batch: one query selecting
// ~20% of the domain plus fifteen selecting ~0.1% each. Under a static
// query partition, whoever draws the heavy query straggles while its
// siblings idle.
func skewedPreds() []scan.Predicate {
	d := int64(benchDomain)
	preds := make([]scan.Predicate, 0, 16)
	preds = append(preds, scan.Predicate{Lo: 0, Hi: storage.Value(d/5 - 1)})
	w := d / 1000
	for i := 0; i < 15; i++ {
		lo := int64(i) * (d / 16)
		preds = append(preds, scan.Predicate{Lo: storage.Value(lo), Hi: storage.Value(lo + w - 1)})
	}
	return preds
}

// skewedHints mirrors what the optimizer hands the executor in
// production: expected result cardinality per query, sizing the arena's
// checkouts.
func skewedHints(preds []scan.Predicate, n int) []int {
	hints := make([]int, len(preds))
	for i, p := range preds {
		frac := float64(int64(p.Hi)-int64(p.Lo)+1) / float64(benchDomain)
		hints[i] = int(frac*float64(n)) + 1
	}
	return hints
}

// BenchmarkSkewedBatch is the tentpole's headline experiment: the same
// skewed batch through the pre-morsel static query partition
// (SharedStatic, spawning per call) and through a pass dispatched on a
// persistent pool with pooled result arenas. Run with -benchmem: the
// morsel side should also show (near-)zero steady-state allocations.
func BenchmarkSkewedBatch(b *testing.B) {
	f := getFixture(b)
	preds := skewedPreds()
	workers := rt.Default().Workers()
	b.Run("static", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = scan.SharedStatic(f.data, preds, 0, workers)
		}
	})
	b.Run("morsel", func(b *testing.B) {
		b.ReportAllocs()
		pool := rt.NewPool(workers, nil)
		defer pool.Close()
		arena := rt.NewArena(0, nil)
		hints := skewedHints(preds, benchN)
		src := scan.NewRaw(f.data, 0, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := coop.Run(context.Background(), pool, arena, src, preds, hints)
			if err != nil {
				b.Fatal(err)
			}
			res.Release()
		}
	})
}

// BenchmarkAblationFanout: probe latency across branching factors; the
// paper picks b=21 for memory, b=250 was the disk-era default.
func BenchmarkAblationFanout(b *testing.B) {
	data := workload.Uniform(1, benchN/2, benchDomain)
	col := storage.NewColumn("v", data)
	for _, fan := range []int{8, 21, 64, 250, 1024} {
		tr := index.Build(col, fan)
		b.Run("b="+qName(fan)[1:], func(b *testing.B) {
			var out []storage.RowID
			for i := 0; i < b.N; i++ {
				out = tr.RangeRowIDs(1000, 1000+benchDomain/500, out[:0])
			}
		})
	}
}

// BenchmarkAblationSort: the cost of delivering index results in rowID
// order (the SC term) vs leaving them in key order.
func BenchmarkAblationSort(b *testing.B) {
	f := getFixture(b)
	lo, hi := storage.Value(0), benchDomain/100
	b.Run("unsorted", func(b *testing.B) {
		var out []storage.RowID
		for i := 0; i < b.N; i++ {
			out = f.rel.Index.RangeRowIDs(lo, hi, out[:0])
		}
	})
	b.Run("sorted_by_rowid", func(b *testing.B) {
		var out []storage.RowID
		for i := 0; i < b.N; i++ {
			out = f.rel.Index.Select(lo, hi, out[:0])
		}
	})
}

// BenchmarkAblationZonemap: data skipping on clustered data vs the plain
// scan, and its decay on a shared batch.
func BenchmarkAblationZonemap(b *testing.B) {
	sorted := workload.Sorted(3, benchN/2, benchDomain)
	col := storage.NewColumn("v", sorted)
	z := storage.BuildZonemap(col, 4096)
	p := scan.Predicate{Lo: benchDomain / 2, Hi: benchDomain/2 + benchDomain/200}
	pruned := scan.NewRaw(sorted, 0, z)
	b.Run("zonemap_clustered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchPass(b, pruned, []scan.Predicate{p})
		}
	})
	b.Run("plain_scan", func(b *testing.B) {
		var out []storage.RowID
		for i := 0; i < b.N; i++ {
			out = scan.ScanUnrolled(sorted, p, 0, out[:0])
		}
	})
	preds := predsFor(16, 0.002)
	b.Run("zonemap_shared_q16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchPass(b, pruned, preds)
		}
	})
}

// BenchmarkAblationDict: dictionary build cost amortized against the
// per-scan byte savings measured by BenchmarkFig17Compression.
func BenchmarkAblationDict(b *testing.B) {
	f := getFixture(b)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := storage.Compress(f.compCol); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("probe_range", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.comp.Dict().EncodeRange(100, 2000)
		}
	})
}

func pctName(s float64) string {
	switch s {
	case 0.001:
		return "0.1%"
	case 0.01:
		return "1%"
	case 0.1:
		return "10%"
	}
	return "x"
}

func qName(q int) string {
	switch q {
	case 1:
		return "q1"
	case 4:
		return "q4"
	case 8:
		return "q8"
	case 16:
		return "q16"
	case 21:
		return "q21"
	case 64:
		return "q64"
	case 250:
		return "q250"
	case 256:
		return "q256"
	case 1024:
		return "q1024"
	}
	return "q" + string(rune('0'+q%10))
}

// --- Extensions: Appendix D/E structures and the DSL front end -------------

// BenchmarkAltPathBitmap: the three access paths answering an equality
// query on a low-cardinality attribute (Appendix E's bitmap case).
func BenchmarkAltPathBitmap(b *testing.B) {
	data := workload.Uniform(7, benchN/2, 128)
	col := storage.NewColumn("status", data)
	bm, err := bitmap.Build(col)
	if err != nil {
		b.Fatal(err)
	}
	tree := index.Build(col, index.DefaultFanout)
	p := scan.Predicate{Lo: 42, Hi: 42}
	b.Run("bitmap", func(b *testing.B) {
		var out []storage.RowID
		for i := 0; i < b.N; i++ {
			out = bm.Select(p.Lo, p.Hi, out[:0])
		}
	})
	b.Run("btree", func(b *testing.B) {
		var out []storage.RowID
		for i := 0; i < b.N; i++ {
			out = tree.Select(p.Lo, p.Hi, out[:0])
		}
	})
	b.Run("scan", func(b *testing.B) {
		var out []storage.RowID
		for i := 0; i < b.N; i++ {
			out = scan.ScanUnrolled(data, p, 0, out[:0])
		}
	})
}

// BenchmarkAblationImprints: imprint-skipping scans on clustered vs
// random data against the plain kernel.
func BenchmarkAblationImprints(b *testing.B) {
	sorted := workload.Sorted(3, benchN/2, benchDomain)
	imp, err := imprints.Build(storage.NewColumn("v", sorted))
	if err != nil {
		b.Fatal(err)
	}
	p := scan.Predicate{Lo: benchDomain / 2, Hi: benchDomain/2 + benchDomain/200}
	b.Run("imprints_clustered", func(b *testing.B) {
		var out []storage.RowID
		for i := 0; i < b.N; i++ {
			out = imp.ScanRows(sorted, 0, len(sorted), p.Lo, p.Hi, out[:0])
		}
	})
	b.Run("plain_clustered", func(b *testing.B) {
		var out []storage.RowID
		for i := 0; i < b.N; i++ {
			out = scan.ScanUnrolled(sorted, p, 0, out[:0])
		}
	})
}

// BenchmarkImprintScan: the engine's scan path over an imprinted column,
// 0.1% ranges at three batch widths. "runs256" is locally clustered data
// (256-row runs, each drawn from a narrow window at a random position):
// no 16Ki-row block is ever empty for a query, so all of the skipping
// must happen per cache line inside surviving blocks. "sorted" prunes
// whole blocks; "random" is the structure's documented worst case.
func BenchmarkImprintScan(b *testing.B) {
	const window = 4096
	rng := rand.New(rand.NewSource(11))
	runs := make([]storage.Value, 2*benchN)
	for lo := 0; lo < len(runs); lo += 256 {
		base := rng.Int31n(benchDomain - window)
		for i := lo; i < lo+256; i++ {
			runs[i] = base + rng.Int31n(window)
		}
	}
	for _, c := range []struct {
		name string
		data []storage.Value
	}{
		{"runs256", runs},
		{"sorted", workload.Sorted(3, 2*benchN, benchDomain)},
		{"random", workload.Uniform(4, 2*benchN, benchDomain)},
	} {
		col := storage.NewColumn("v", c.data)
		imp, err := imprints.Build(col)
		if err != nil {
			b.Fatal(err)
		}
		rel := &exec.Relation{Column: col, Imprints: imp}
		for _, q := range []int{1, 16, 64} {
			preds := workload.Batch(5, q, 0.001, benchDomain)
			b.Run(c.name+"/q="+strconv.Itoa(q), func(b *testing.B) {
				opt := exec.Options{Arena: rt.NewArena(0, nil)}
				for i := 0; i < b.N; i++ {
					res, err := exec.RunScan(context.Background(), rel, preds, opt)
					if err != nil {
						b.Fatal(err)
					}
					res.Release()
				}
			})
		}
	}
}

// BenchmarkAblationFetchOrder: tuple reconstruction with rowID-sorted vs
// shuffled results — the Section 2.3 justification for the sort term.
func BenchmarkAblationFetchOrder(b *testing.B) {
	f := getFixture(b)
	second := workload.Uniform(8, benchN, benchDomain)
	col := storage.NewColumn("w", second)
	sorted := f.rel.Index.Select(0, benchDomain/50, nil)
	shuffled := append([]storage.RowID(nil), sorted...)
	rng := rand.New(rand.NewSource(9))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var out []storage.Value
	b.Run("sorted_rowids", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out = ops.Fetch(col, sorted, out)
		}
	})
	b.Run("shuffled_rowids", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out = ops.Fetch(col, shuffled, out)
		}
	})
}

// BenchmarkDSL: parse throughput and a full parse->optimize->execute
// round trip through the engine.
func BenchmarkDSL(b *testing.B) {
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dsl.Parse("SELECT SUM(price) FROM sales WHERE day BETWEEN 100 AND 200"); err != nil {
				b.Fatal(err)
			}
		}
	})
	eng := New(Config{})
	tbl, err := eng.CreateTable("sales")
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.AddColumn("day", workload.Uniform(1, benchN/4, 1000)); err != nil {
		b.Fatal(err)
	}
	if err := tbl.AddColumn("price", workload.Uniform(2, benchN/4, 100000)); err != nil {
		b.Fatal(err)
	}
	if err := tbl.CreateIndex("day"); err != nil {
		b.Fatal(err)
	}
	if err := tbl.Analyze("day", 64); err != nil {
		b.Fatal(err)
	}
	b.Run("query_sum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query("SELECT SUM(price) FROM sales WHERE day = 5"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPersist: column save/load throughput.
func BenchmarkPersist(b *testing.B) {
	f := getFixture(b)
	dir := b.TempDir()
	path := filepath.Join(dir, "v.col")
	b.Run("save", func(b *testing.B) {
		b.SetBytes(int64(len(f.data) * 4))
		for i := 0; i < b.N; i++ {
			if err := persist.SaveColumnFile(path, f.data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.SetBytes(int64(len(f.data) * 4))
		for i := 0; i < b.N; i++ {
			if _, err := persist.LoadColumnFile(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}
