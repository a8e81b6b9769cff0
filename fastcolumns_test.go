package fastcolumns

import (
	"math/rand"
	"testing"
	"time"

	"fastcolumns/internal/workload"
)

func testEngine(t *testing.T, n int, domain int32) (*Engine, *Table, []Value) {
	t.Helper()
	eng := New(Config{})
	tbl, err := eng.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	data := workload.Uniform(1, n, domain)
	if err := tbl.AddColumn("v", data); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("v"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Analyze("v", 128); err != nil {
		t.Fatal(err)
	}
	return eng, tbl, data
}

func refIDs(data []Value, p Predicate) []RowID {
	var out []RowID
	for i, v := range data {
		if p.Matches(v) {
			out = append(out, RowID(i))
		}
	}
	return out
}

func equalIDs(a, b []RowID) bool {
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

func TestEngineLifecycle(t *testing.T) {
	eng, tbl, _ := testEngine(t, 10000, 1000)
	if _, err := eng.CreateTable("t"); err == nil {
		t.Fatal("duplicate table accepted")
	}
	got, err := eng.Table("t")
	if err != nil || got != tbl {
		t.Fatalf("Table lookup failed: %v", err)
	}
	if _, err := eng.Table("missing"); err == nil {
		t.Fatal("missing table lookup succeeded")
	}
	if tbl.Rows() != 10000 || tbl.Name() != "t" {
		t.Fatalf("table misdescribed: %d rows, %q", tbl.Rows(), tbl.Name())
	}
	if !tbl.HasIndex("v") || tbl.HasIndex("w") {
		t.Fatal("HasIndex wrong")
	}
}

func TestSelectCorrectAcrossPaths(t *testing.T) {
	_, tbl, data := testEngine(t, 50000, 10000)
	preds := []Predicate{
		{Lo: 100, Hi: 120},     // low selectivity: likely index
		{Lo: 0, Hi: 9000},      // high selectivity: scan
		{Lo: 20000, Hi: 30000}, // empty
	}
	for _, p := range preds {
		ids, d, err := tbl.Select("v", p.Lo, p.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(ids, refIDs(data, p)) {
			t.Fatalf("Select(%+v) via %v wrong (%d rows)", p, d.Path, len(ids))
		}
	}
}

func TestOptimizerPicksIndexForPointAndScanForWide(t *testing.T) {
	_, tbl, _ := testEngine(t, 2_000_000, 1<<20)
	dPoint, err := tbl.Explain("v", []Predicate{{Lo: 500, Hi: 500}})
	if err != nil {
		t.Fatal(err)
	}
	if dPoint.Path != PathIndex {
		t.Fatalf("point get chose %v (ratio %v)", dPoint.Path, dPoint.Ratio)
	}
	dWide, err := tbl.Explain("v", []Predicate{{Lo: 0, Hi: 1 << 19}})
	if err != nil {
		t.Fatal(err)
	}
	if dWide.Path != PathScan {
		t.Fatalf("50%% query chose %v (ratio %v)", dWide.Path, dWide.Ratio)
	}
}

func TestSelectViaForcesPath(t *testing.T) {
	_, tbl, data := testEngine(t, 30000, 5000)
	p := Predicate{Lo: 1000, Hi: 1100}
	want := refIDs(data, p)
	for _, path := range []Path{PathScan, PathIndex} {
		res, err := tbl.SelectVia(path, "v", []Predicate{p})
		if err != nil {
			t.Fatal(err)
		}
		if res.Decision.Path != path || !res.Decision.Forced {
			t.Fatalf("SelectVia(%v) decision %+v", path, res.Decision)
		}
		if !equalIDs(res.RowIDs[0], want) {
			t.Fatalf("SelectVia(%v) wrong rows", path)
		}
	}
}

func TestBatchResultsMatchPerQuery(t *testing.T) {
	_, tbl, data := testEngine(t, 40000, 1<<16)
	preds := workload.Batch(9, 32, 0.01, 1<<16)
	res, err := tbl.SelectBatch("v", preds)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RowIDs) != len(preds) {
		t.Fatalf("got %d result sets", len(res.RowIDs))
	}
	for qi, p := range preds {
		if !equalIDs(res.RowIDs[qi], refIDs(data, p)) {
			t.Fatalf("batch query %d wrong", qi)
		}
	}
}

func TestEmptyBatchRejected(t *testing.T) {
	_, tbl, _ := testEngine(t, 100, 10)
	if _, err := tbl.SelectBatch("v", nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestUnknownAttribute(t *testing.T) {
	_, tbl, _ := testEngine(t, 100, 10)
	if _, _, err := tbl.Select("zzz", 0, 1); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if err := tbl.CreateIndex("zzz"); err == nil {
		t.Fatal("index on unknown attribute accepted")
	}
}

func TestCompressedAndZonemapPathsStayCorrect(t *testing.T) {
	_, tbl, data := testEngine(t, 30000, 4000)
	if err := tbl.Compress("v"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.BuildZonemap("v", 512); err != nil {
		t.Fatal(err)
	}
	p := Predicate{Lo: 500, Hi: 700}
	res, err := tbl.SelectVia(PathScan, "v", []Predicate{p})
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(res.RowIDs[0], refIDs(data, p)) {
		t.Fatal("compressed scan wrong")
	}
}

func TestColumnGroupTable(t *testing.T) {
	eng := New(Config{})
	tbl, _ := eng.CreateTable("g")
	a := workload.Uniform(3, 5000, 1000)
	b := workload.Uniform(4, 5000, 1000)
	if err := tbl.AddColumnGroup([]string{"a", "b"}, [][]Value{a, b}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("b"); err != nil {
		t.Fatal(err)
	}
	p := Predicate{Lo: 100, Hi: 200}
	ids, _, err := tbl.Select("b", p.Lo, p.Hi)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(ids, refIDs(b, p)) {
		t.Fatal("column-group select wrong")
	}
}

func TestAppendMergeVisibility(t *testing.T) {
	_, tbl, data := testEngine(t, 10000, 1<<14)
	if err := tbl.Compress("v"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.BuildZonemap("v", 256); err != nil {
		t.Fatal(err)
	}
	// Append tuples carrying a value not in the read store yet.
	novel := Value(1<<14 + 5)
	for i := 0; i < 3; i++ {
		if err := tbl.Append([]Value{novel}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Pending() != 3 {
		t.Fatalf("Pending = %d", tbl.Pending())
	}
	// Invisible before merge.
	ids, _, err := tbl.Select("v", novel, novel)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("unmerged appends visible: %v", ids)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 10003 {
		t.Fatalf("Rows after merge = %d", tbl.Rows())
	}
	// Visible via both paths after merge.
	for _, path := range []Path{PathScan, PathIndex} {
		res, err := tbl.SelectVia(path, "v", []Predicate{{Lo: novel, Hi: novel}})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.RowIDs[0]; len(got) != 3 || got[0] != 10000 || got[2] != 10002 {
			t.Fatalf("post-merge %v select = %v", path, got)
		}
	}
	// Old data still intact.
	p := Predicate{Lo: 100, Hi: 200}
	ids, _, _ = tbl.Select("v", p.Lo, p.Hi)
	if !equalIDs(ids, refIDs(data, p)) {
		t.Fatal("pre-merge data corrupted by merge")
	}
}

func TestServerBatchesAndAnswers(t *testing.T) {
	eng, _, data := testEngine(t, 30000, 1<<16)
	srv := eng.Serve(ServeOptions{Window: 5 * time.Millisecond})
	defer srv.Close()
	rng := rand.New(rand.NewSource(11))
	type sub struct {
		p  Predicate
		ch <-chan Reply
	}
	var subs []sub
	for i := 0; i < 20; i++ {
		lo := rng.Int31n(1 << 16)
		p := Predicate{Lo: lo, Hi: lo + 500}
		ch, err := srv.Submit("t", "v", p)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{p: p, ch: ch})
	}
	for _, s := range subs {
		r := <-s.ch
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if !equalIDs(r.RowIDs, refIDs(data, s.p)) {
			t.Fatalf("server answer wrong for %+v", s.p)
		}
	}
}

func TestServerUnknownTable(t *testing.T) {
	eng, _, _ := testEngine(t, 100, 10)
	srv := eng.Serve(ServeOptions{})
	defer srv.Close()
	if _, err := srv.Submit("missing", "v", Predicate{}); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestDefaultAndCalibratedHardware(t *testing.T) {
	hw := DefaultHardware()
	if err := hw.Validate(); err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Hardware: hw})
	if eng.Hardware().Name != hw.Name {
		t.Fatal("hardware not carried into engine")
	}
}

func TestBitmapIndexPath(t *testing.T) {
	eng := New(Config{})
	tbl, _ := eng.CreateTable("bm")
	data := workload.Uniform(7, 20000, 128) // low-cardinality attribute
	if err := tbl.AddColumn("status", data); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateBitmapIndex("status"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Analyze("status", 64); err != nil {
		t.Fatal(err)
	}
	p := Predicate{Lo: 42, Hi: 42}
	res, err := tbl.SelectVia(PathBitmap, "status", []Predicate{p})
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(res.RowIDs[0], refIDs(data, p)) {
		t.Fatal("bitmap select wrong")
	}
	// The optimizer should choose the bitmap for an equality query on a
	// low-cardinality attribute with no B+-tree.
	d, err := tbl.Explain("status", []Predicate{p})
	if err != nil {
		t.Fatal(err)
	}
	if d.Path != PathBitmap {
		t.Fatalf("equality query on 128-value domain chose %v (ratio %v)", d.Path, d.Ratio)
	}
	// Bitmap rejected on wide domains.
	wide := workload.Uniform(8, 1000, 1<<20)
	if err := tbl.AddColumn("wide", wide); err == nil {
		t.Fatal("row-count mismatch should fail") // 1000 != 20000 rows
	}
}

func TestImprintsSpeedScanOnClusteredData(t *testing.T) {
	eng := New(Config{})
	tbl, _ := eng.CreateTable("imp")
	data := workload.Sorted(9, 50000, 1<<20)
	if err := tbl.AddColumn("ts", data); err != nil {
		t.Fatal(err)
	}
	if err := tbl.BuildImprints("ts"); err != nil {
		t.Fatal(err)
	}
	p := Predicate{Lo: 1 << 18, Hi: 1<<18 + 5000}
	res, err := tbl.SelectVia(PathScan, "ts", []Predicate{p})
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(res.RowIDs[0], refIDs(data, p)) {
		t.Fatal("imprint-accelerated scan wrong")
	}
}

func TestMergeRebuildsBitmapAndImprints(t *testing.T) {
	eng := New(Config{})
	tbl, _ := eng.CreateTable("mrg")
	data := workload.Uniform(10, 5000, 100)
	if err := tbl.AddColumn("v", data); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateBitmapIndex("v"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.BuildImprints("v"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append([]Value{55}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	res, err := tbl.SelectVia(PathBitmap, "v", []Predicate{{Lo: 55, Hi: 55}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range res.RowIDs[0] {
		if id == 5000 {
			found = true
		}
	}
	if !found {
		t.Fatal("merged row missing from rebuilt bitmap")
	}
}

// TestStatisticsFollowCountingStructures pins where each attribute's
// selectivities come from: a bitmap-indexed attribute is counted exactly
// even when analyzed, an indexed attribute holds no histogram whether it
// was analyzed before or after CreateIndex (and still none after a
// merge), and an unindexed attribute estimates from a histogram that
// Merge rebuilt over the merged rows.
func TestStatisticsFollowCountingStructures(t *testing.T) {
	const n, added = 20000, 2000
	eng := New(Config{})
	tbl, _ := eng.CreateTable("stats")
	data := map[string][]Value{
		"a": workload.Uniform(11, n, 1<<16),
		"b": workload.Zipf(12, n, 200, 1.2),
		"c": workload.Uniform(13, n, 1000),
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := tbl.AddColumn(name, data[name]); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tbl.Analyze("a", 64))
	must(tbl.CreateIndex("a"))
	must(tbl.Analyze("a", 64))
	must(tbl.CreateBitmapIndex("b"))
	must(tbl.Analyze("b", 64))
	must(tbl.Analyze("c", 64))

	exact := func(attr string, preds []Predicate) {
		t.Helper()
		d, err := tbl.Explain(attr, preds)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range preds {
			want := float64(len(refIDs(data[attr], p))) / float64(len(data[attr]))
			if d.Selectivities[i] != want {
				t.Fatalf("%s %v: selectivity %v, want the exact %v", attr, p, d.Selectivities[i], want)
			}
		}
	}
	noHistogram := func(when string) {
		t.Helper()
		for _, attr := range []string{"a", "b"} {
			if tbl.rels[attr].Histogram != nil {
				t.Fatalf("%s: indexed attribute %s holds a histogram", when, attr)
			}
		}
	}
	bPreds := []Predicate{{Lo: 0, Hi: 0}, {Lo: 3, Hi: 17}, {Lo: 40, Hi: 90}, {Lo: 150, Hi: 400}}
	exact("b", bPreds)
	exact("a", []Predicate{{Lo: 100, Hi: 900}})
	noHistogram("after Analyze")

	// Append rows whose c value lies beyond every value analyzed.
	for i := 0; i < added; i++ {
		tuple := []Value{Value(i), 7, 5000}
		must(tbl.Append(tuple))
		data["a"] = append(data["a"], tuple[0])
		data["b"] = append(data["b"], tuple[1])
		data["c"] = append(data["c"], tuple[2])
	}
	must(tbl.Merge())
	noHistogram("after Merge")
	exact("b", bPreds)
	h := tbl.rels["c"].Histogram
	if h == nil {
		t.Fatal("Merge dropped the unindexed attribute's histogram")
	}
	p := Predicate{Lo: 1000, Hi: 5000}
	d, err := tbl.Explain("c", []Predicate{p})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Selectivities[0]; got != h.EstimateRange(p.Lo, p.Hi) || got < 0.05 {
		t.Fatalf("unindexed selectivity %v after Merge, want the rebuilt histogram's estimate near %v",
			got, float64(added)/(n+added))
	}
}

func TestSaveAndLoadTable(t *testing.T) {
	eng, tbl, data := testEngine(t, 5000, 1000)
	dir := t.TempDir()
	if err := tbl.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Load into a fresh engine, rebuild structures, query.
	eng2 := New(Config{})
	loaded, err := eng2.LoadTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Rows() != 5000 || loaded.Name() != "t" {
		t.Fatalf("loaded %q with %d rows", loaded.Name(), loaded.Rows())
	}
	if err := loaded.CreateIndex("v"); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Analyze("v", 64); err != nil {
		t.Fatal(err)
	}
	p := Predicate{Lo: 100, Hi: 150}
	ids, _, err := loaded.Select("v", p.Lo, p.Hi)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(ids, refIDs(data, p)) {
		t.Fatal("loaded table answers differently")
	}
	// Duplicate registration rejected.
	if _, err := eng.LoadTable(dir); err == nil {
		t.Fatal("loading over an existing table name accepted")
	}
}

func TestExplainRobustness(t *testing.T) {
	_, tbl, _ := testEngine(t, 2_000_000, 1<<20)
	// Deep in index territory: wide margin, big penalty.
	dPoint, rPoint, err := tbl.ExplainRobustness("v", []Predicate{{Lo: 5, Hi: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if dPoint.Path != PathIndex {
		t.Fatalf("point chose %v", dPoint.Path)
	}
	if rPoint.ErrorMargin < 5 || rPoint.WrongChoicePenalty < 2 {
		t.Fatalf("point robustness implausible: %+v", rPoint)
	}
	// Every margin >= 1, every penalty >= 1.
	for _, p := range []Predicate{{Lo: 0, Hi: 1 << 12}, {Lo: 0, Hi: 1 << 19}} {
		_, r, err := tbl.ExplainRobustness("v", []Predicate{p})
		if err != nil {
			t.Fatal(err)
		}
		if r.ErrorMargin < 1 || r.WrongChoicePenalty < 1 {
			t.Fatalf("robustness below 1: %+v", r)
		}
	}
}

func TestServerStats(t *testing.T) {
	eng, _, _ := testEngine(t, 20000, 1<<16)
	srv := eng.Serve(ServeOptions{Window: 2 * time.Millisecond})
	defer srv.Close()
	// Cold: zero value.
	if st := srv.Stats("t", "v"); st.Batches != 0 || st.Queries != 0 {
		t.Fatalf("cold stats = %+v", st)
	}
	var chans []<-chan Reply
	for i := 0; i < 12; i++ {
		ch, err := srv.Submit("t", "v", Predicate{Lo: int32(i), Hi: int32(i)})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st := srv.Stats("t", "v")
	if st.Queries != 12 {
		t.Fatalf("Queries = %d, want 12", st.Queries)
	}
	if st.Batches < 1 || st.Batches > 12 {
		t.Fatalf("Batches = %d", st.Batches)
	}
	if st.MaxBatch < 1 {
		t.Fatalf("MaxBatch = %d", st.MaxBatch)
	}
	var total int64
	for _, c := range st.PathCounts {
		total += c
	}
	if total != st.Batches {
		t.Fatalf("path tallies %v don't sum to batches %d", st.PathCounts, st.Batches)
	}
	// Snapshot isolation: mutating the returned map must not leak back.
	st.PathCounts["scan"] = 999
	if srv.Stats("t", "v").PathCounts["scan"] == 999 {
		t.Fatal("Stats leaked internal map")
	}
}

func TestServerSharesDuplicatePredicates(t *testing.T) {
	eng, _, data := testEngine(t, 20000, 1<<14)
	srv := eng.Serve(ServeOptions{Window: 5 * time.Millisecond})
	defer srv.Close()
	p := Predicate{Lo: 100, Hi: 300}
	want := refIDs(data, p)
	var chans []<-chan Reply
	for i := 0; i < 10; i++ {
		ch, err := srv.Submit("t", "v", p) // all identical
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	ch2, err := srv.Submit("t", "v", Predicate{Lo: 500, Hi: 600})
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if !equalIDs(r.RowIDs, want) {
			t.Fatal("deduped answer wrong")
		}
	}
	r := <-ch2
	if r.Err != nil || !equalIDs(r.RowIDs, refIDs(data, Predicate{Lo: 500, Hi: 600})) {
		t.Fatal("non-duplicate answer wrong")
	}
}

func TestTableCountFastPath(t *testing.T) {
	eng, tbl, data := testEngine(t, 40000, 1<<16)
	preds := []Predicate{{Lo: 0, Hi: 500}, {Lo: 1 << 15, Hi: 1<<15 + 100}, {Lo: 1 << 17, Hi: 1 << 18}}
	counts, d, err := tbl.Count("v", preds)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range preds {
		if counts[i] != len(refIDs(data, p)) {
			t.Fatalf("count[%d] = %d, want %d (path %v)", i, counts[i], len(refIDs(data, p)), d.Path)
		}
	}
	if _, _, err := tbl.Count("v", nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	// The DSL COUNT(*) without residuals routes through the fast path and
	// agrees with the materializing query.
	res, err := eng.Query("SELECT COUNT(*) FROM t WHERE v BETWEEN 0 AND 500")
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Count != int64(counts[0]) {
		t.Fatalf("DSL fast count %d, want %d", res.Agg.Count, counts[0])
	}
}
