package optimizer

import (
	"math/rand"
	"testing"
	"time"

	"fastcolumns/internal/exec"
	"fastcolumns/internal/index"
	"fastcolumns/internal/model"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/stats"
	"fastcolumns/internal/storage"
	"fastcolumns/internal/workload"
)

// testRelation builds an unindexed relation over uniform data, carrying
// its histogram.
func testRelation(t *testing.T, n int, domain int32) *exec.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	data := make([]storage.Value, n)
	for i := range data {
		data[i] = rng.Int31n(domain)
	}
	col := storage.NewColumn("v", data)
	h, err := stats.BuildHistogram(col, 64)
	if err != nil {
		t.Fatal(err)
	}
	return &exec.Relation{Column: col, Histogram: h}
}

func TestChooseFollowsModel(t *testing.T) {
	o := New(model.HW1())
	n := 100_000_000
	// Far below any crossover: index. Far above: scan.
	lo := o.Choose(n, 4, []float64{0.00001})
	if lo.Path != model.PathIndex || lo.Ratio >= 1 {
		t.Fatalf("low selectivity chose %v (ratio %v)", lo.Path, lo.Ratio)
	}
	hi := o.Choose(n, 4, []float64{0.3})
	if hi.Path != model.PathScan || hi.Ratio < 1 {
		t.Fatalf("high selectivity chose %v (ratio %v)", hi.Path, hi.Ratio)
	}
}

func TestConcurrencyFlipsDecision(t *testing.T) {
	// The paper's headline: the same per-query selectivity can favor the
	// index alone and the scan in a wide batch.
	o := New(model.HW1())
	n := 100_000_000
	s, ok := model.Crossover(1, model.Dataset{N: float64(n), TupleSize: 4}, o.HW(), o.Design())
	if !ok {
		t.Fatal("no single-query crossover")
	}
	probe := s / 2
	single := o.Choose(n, 4, []float64{probe})
	if single.Path != model.PathIndex {
		t.Fatalf("q=1 at s=%v should probe (ratio %v)", probe, single.Ratio)
	}
	batch := make([]float64, 256)
	for i := range batch {
		batch[i] = probe
	}
	wide := o.Choose(n, 4, batch)
	if wide.Path != model.PathScan {
		t.Fatalf("q=256 at s=%v should scan (ratio %v)", probe, wide.Ratio)
	}
}

// TestDecideCountsSelectivityExactly pins where Decide's selectivities
// come from. On a Zipf column the equi-depth histogram misestimates a
// tail range by far more than 4x — enough to flip a batch of eight to
// the wrong path. With an index, Decide must price that batch from the
// index's exact counts and pick what the model picks on the truth;
// without one, the histogram is all there is and Decide must use it.
func TestDecideCountsSelectivityExactly(t *testing.T) {
	const n = 200_000
	col := storage.NewColumn("v", workload.Zipf(1, n, 1<<20, 1.5))
	h, err := stats.BuildHistogram(col, 64)
	if err != nil {
		t.Fatal(err)
	}
	// The histogram rides along to show the index's count outranks it.
	indexed := &exec.Relation{Column: col, Index: index.Build(col, index.DefaultFanout), Histogram: h}
	o := New(model.HW1())

	pred := scan.Predicate{Lo: 2711, Hi: 5422}
	preds := make([]scan.Predicate, 8)
	for i := range preds {
		preds[i] = pred
	}
	exact := float64(indexed.Index.RangeCount(pred.Lo, pred.Hi)) / n
	est := h.EstimateRange(pred.Lo, pred.Hi)
	if exact == 0 || (est/exact < 4 && exact/est < 4) {
		t.Fatalf("fixture: histogram estimate %v is within 4x of the true %v", est, exact)
	}
	params := func(s float64) model.Params {
		return model.Params{
			Workload: model.Uniform(len(preds), s),
			Dataset:  model.Dataset{N: n, TupleSize: 4},
			Hardware: o.HW(),
			Design:   o.Design(),
		}
	}
	truth := model.Choose(params(exact))
	if model.Choose(params(est)) == truth {
		t.Fatalf("fixture: the histogram's estimate picks %v, the same as the truth", truth)
	}

	d := o.Decide(indexed, preds)
	for i, s := range d.Selectivities {
		if s != exact {
			t.Fatalf("selectivity %d = %v, want the index count %v (histogram says %v)", i, s, exact, est)
		}
	}
	if d.Path != truth || d.Forced {
		t.Fatalf("Decide chose %v (forced %v), model on true selectivities chooses %v", d.Path, d.Forced, truth)
	}

	// No index: the histogram is the only source, and the scan is forced.
	d = o.Decide(&exec.Relation{Column: col, Histogram: h}, preds)
	if d.Selectivities[0] != est || !d.Forced {
		t.Fatalf("unindexed Decide used selectivity %v (forced %v), want the histogram's %v", d.Selectivities[0], d.Forced, est)
	}
	// Neither an index nor a histogram: selectivity 0.
	if s := Selectivity(&exec.Relation{Column: col}, pred); s != 0 {
		t.Fatalf("Selectivity with no index or histogram = %v, want 0", s)
	}
}

func TestDecideForcedWithoutIndex(t *testing.T) {
	rel := testRelation(t, 10000, 1000)
	o := New(model.HW1())
	d := o.Decide(rel, []scan.Predicate{{Lo: 0, Hi: 0}})
	if d.Path != model.PathScan || !d.Forced {
		t.Fatalf("missing index must force a scan: %+v", d)
	}
}

func TestDecisionIsFast(t *testing.T) {
	// Section 3: APS evaluation must stay microseconds even for large
	// batches, or optimization time becomes the bottleneck.
	o := New(model.HW1())
	sel := make([]float64, 640)
	for i := range sel {
		sel[i] = 0.001
	}
	start := time.Now()
	const trials = 1000
	for i := 0; i < trials; i++ {
		o.Choose(100_000_000, 4, sel)
	}
	per := time.Since(start) / trials
	if per > 200*time.Microsecond {
		t.Fatalf("decision took %v per batch; the paper requires microseconds", per)
	}
}

func TestTraditionalIgnoresConcurrency(t *testing.T) {
	n := 100_000_000
	tr := NewTraditional(n, 4, model.HW1(), model.FittedDesign())
	if tr.Threshold <= 0 || tr.Threshold >= 1 {
		t.Fatalf("threshold %v not tuned", tr.Threshold)
	}
	below := tr.Threshold / 2
	one := []float64{below}
	many := make([]float64, 512)
	for i := range many {
		many[i] = below
	}
	if tr.Decide(one) != model.PathIndex || tr.Decide(many) != model.PathIndex {
		t.Fatal("traditional optimizer must make the same choice at any concurrency")
	}
	// The APS optimizer disagrees at high concurrency — this is the gap
	// Figure 18 exposes.
	o := New(model.HW1())
	if o.Choose(n, 4, many).Path != model.PathScan {
		t.Skip("model crossover moved; gap scenario not at this point")
	}
}

func TestTraditionalEmptyBatch(t *testing.T) {
	tr := Traditional{Threshold: 0.01}
	if tr.Decide(nil) != model.PathScan {
		t.Fatal("empty batch should default to scan")
	}
}

func TestSinglePathPolicies(t *testing.T) {
	if (SinglePath{Path: model.PathIndex}).Decide([]float64{0.9}) != model.PathIndex {
		t.Fatal("single-path index policy deviated")
	}
	if (SinglePath{Path: model.PathScan}).Decide([]float64{0.0001}) != model.PathScan {
		t.Fatal("single-path scan policy deviated")
	}
}

func TestColumnGroupShiftsDecision(t *testing.T) {
	// Observation 2.3 at the optimizer level: the same estimate that scans
	// on a narrow column can probe on a wide column-group.
	o := New(model.HW1())
	n := 100_000_000
	sNarrow, _ := model.Crossover(4, model.Dataset{N: float64(n), TupleSize: 4}, o.HW(), o.Design())
	sWide, _ := model.Crossover(4, model.Dataset{N: float64(n), TupleSize: 40}, o.HW(), o.Design())
	if sWide <= sNarrow {
		t.Fatalf("wide crossover %v not above narrow %v", sWide, sNarrow)
	}
	mid := (sNarrow + sWide) / 2
	sel := []float64{mid, mid, mid, mid}
	if o.Choose(n, 4, sel).Path != model.PathScan {
		t.Fatal("narrow layout should scan at the midpoint")
	}
	if o.Choose(n, 40, sel).Path != model.PathIndex {
		t.Fatal("wide layout should probe at the midpoint")
	}
}
