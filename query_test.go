package fastcolumns

import (
	"strings"
	"testing"

	"fastcolumns/internal/race"
	"fastcolumns/internal/stats"
	"fastcolumns/internal/storage"
	"fastcolumns/internal/workload"
)

func queryEngine(t *testing.T) (*Engine, []Value, []Value) {
	t.Helper()
	eng := New(Config{})
	tbl, err := eng.CreateTable("sales")
	if err != nil {
		t.Fatal(err)
	}
	day := workload.Uniform(1, 50000, 1000)
	price := workload.Uniform(2, 50000, 100000)
	if err := tbl.AddColumn("day", day); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddColumn("price", price); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("day"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Analyze("day", 64); err != nil {
		t.Fatal(err)
	}
	return eng, day, price
}

func TestQuerySelectRowIDs(t *testing.T) {
	eng, day, _ := queryEngine(t)
	res, err := eng.Query("SELECT day FROM sales WHERE day BETWEEN 100 AND 110")
	if err != nil {
		t.Fatal(err)
	}
	want := refIDs(day, Predicate{Lo: 100, Hi: 110})
	if !equalIDs(res.RowIDs, want) {
		t.Fatalf("query returned %d rows, want %d", len(res.RowIDs), len(want))
	}
	if res.Agg != nil || res.Values != nil {
		t.Fatal("plain same-attribute select should not fetch or aggregate")
	}
}

func TestQueryTupleReconstruction(t *testing.T) {
	eng, day, price := queryEngine(t)
	res, err := eng.Query("SELECT price FROM sales WHERE day = 500")
	if err != nil {
		t.Fatal(err)
	}
	want := refIDs(day, Predicate{Lo: 500, Hi: 500})
	if !equalIDs(res.RowIDs, want) {
		t.Fatal("filter rows wrong")
	}
	if len(res.Values) != len(want) {
		t.Fatalf("fetched %d values, want %d", len(res.Values), len(want))
	}
	for i, id := range want {
		if res.Values[i] != price[id] {
			t.Fatalf("value %d = %d, want %d", i, res.Values[i], price[id])
		}
	}
}

func TestQueryAggregates(t *testing.T) {
	eng, day, price := queryEngine(t)
	pred := Predicate{Lo: 0, Hi: 99}
	ids := refIDs(day, pred)
	var sum int64
	mn, mx := Value(1<<31-1), Value(-1<<31)
	for _, id := range ids {
		v := price[id]
		sum += int64(v)
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}

	res, err := eng.Query("SELECT COUNT(*) FROM sales WHERE day < 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg == nil || res.Agg.Kind != "count" || res.Agg.Count != int64(len(ids)) {
		t.Fatalf("count = %+v, want %d", res.Agg, len(ids))
	}

	res, err = eng.Query("SELECT SUM(price) FROM sales WHERE day <= 99")
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Sum != sum {
		t.Fatalf("sum = %d, want %d", res.Agg.Sum, sum)
	}

	res, err = eng.Query("SELECT MIN(price) FROM sales WHERE day <= 99")
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Min != mn {
		t.Fatalf("min = %d, want %d", res.Agg.Min, mn)
	}

	res, err = eng.Query("SELECT AVG(price) FROM sales WHERE day <= 99")
	if err != nil {
		t.Fatal(err)
	}
	wantAvg := float64(sum) / float64(len(ids))
	if res.Agg.Avg < wantAvg-0.001 || res.Agg.Avg > wantAvg+0.001 {
		t.Fatalf("avg = %v, want %v", res.Agg.Avg, wantAvg)
	}
	_ = mx
}

func TestQueryExplain(t *testing.T) {
	eng, _, _ := queryEngine(t)
	res, err := eng.Query("EXPLAIN SELECT day FROM sales WHERE day = 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowIDs != nil || res.Agg != nil {
		t.Fatal("EXPLAIN must not execute")
	}
	if res.Decision.Path != PathIndex {
		t.Fatalf("point query on indexed attribute should explain as index, got %v", res.Decision.Path)
	}
}

func TestQueryErrors(t *testing.T) {
	eng, _, _ := queryEngine(t)
	cases := []struct {
		stmt    string
		wantSub string
	}{
		{"SELECT day FROM missing WHERE day = 1", "no table"},
		{"SELECT day FROM sales WHERE nope = 1", "no attribute"},
		{"SELECT nope FROM sales WHERE day = 1", "no attribute"},
		{"SELEKT day FROM sales", "expected SELECT"},
		{"SELECT AVG(price) FROM sales WHERE day BETWEEN 2000 AND 3000", "empty result"},
	}
	for _, c := range cases {
		_, err := eng.Query(c.stmt)
		if err == nil {
			t.Fatalf("%q: expected error", c.stmt)
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("%q: error %q missing %q", c.stmt, err, c.wantSub)
		}
	}
}

func TestQueryEmptyAggregates(t *testing.T) {
	eng, _, _ := queryEngine(t)
	res, err := eng.Query("SELECT SUM(price) FROM sales WHERE day BETWEEN 5000 AND 6000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Count != 0 || res.Agg.Sum != 0 || res.Agg.Min != 0 || res.Agg.Max != 0 {
		t.Fatalf("empty sum = %+v", res.Agg)
	}
}

func TestQueryConjunction(t *testing.T) {
	eng, day, price := queryEngine(t)
	// Reference: both predicates.
	var want []RowID
	for i := range day {
		if day[i] >= 100 && day[i] <= 150 && price[i] >= 0 && price[i] <= 20000 {
			want = append(want, RowID(i))
		}
	}
	res, err := eng.Query("SELECT day FROM sales WHERE day BETWEEN 100 AND 150 AND price <= 20000")
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(res.RowIDs, want) {
		t.Fatalf("conjunction returned %d rows, want %d", len(res.RowIDs), len(want))
	}
	// day has a histogram and the narrower estimate; it must drive.
	if res.DriverAttr != "day" {
		t.Fatalf("driver = %s, want day", res.DriverAttr)
	}
}

func TestQueryConjunctionDriverChoice(t *testing.T) {
	eng, _, _ := queryEngine(t)
	tbl, _ := eng.Table("sales")
	if err := tbl.Analyze("price", 64); err != nil {
		t.Fatal(err)
	}
	// price = X is far more selective than day's wide range: price drives.
	res, err := eng.Query("EXPLAIN SELECT day FROM sales WHERE day BETWEEN 0 AND 900 AND price = 77")
	if err != nil {
		t.Fatal(err)
	}
	if res.DriverAttr != "price" {
		t.Fatalf("driver = %s, want price", res.DriverAttr)
	}
}

// TestQueryConjunctionDriverCountedExactly orders two indexed, analyzed
// Zipf attributes whose 64-bucket histograms misorder the conjuncts: a's
// tail range is underestimated ~100x, so by estimate it would drive, but
// b's range selects fewer rows. The index counts pick b.
func TestQueryConjunctionDriverCountedExactly(t *testing.T) {
	const n = 200_000
	eng := New(Config{})
	tbl, err := eng.CreateTable("zipf")
	if err != nil {
		t.Fatal(err)
	}
	data := map[string][]Value{
		"a": workload.Zipf(1, n, 1<<20, 1.5),
		"b": workload.Zipf(2, n, 1<<20, 1.5),
	}
	preds := map[string]Predicate{
		"a": {Lo: 2711, Hi: 5422},
		"b": {Lo: 50000, Hi: 100000},
	}
	sel := map[string][2]float64{} // exact, estimated
	for _, attr := range []string{"a", "b"} {
		if err := tbl.AddColumn(attr, data[attr]); err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateIndex(attr); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Analyze(attr, 64); err != nil {
			t.Fatal(err)
		}
		h, err := stats.BuildHistogram(storage.NewColumn(attr, data[attr]), 64)
		if err != nil {
			t.Fatal(err)
		}
		p := preds[attr]
		sel[attr] = [2]float64{float64(len(refIDs(data[attr], p))) / n, h.EstimateRange(p.Lo, p.Hi)}
	}
	if !(sel["b"][0] < sel["a"][0] && sel["a"][1] < sel["b"][1]) {
		t.Fatalf("fixture: histograms (a %v, b %v) order the conjuncts as the counts (a %v, b %v) do",
			sel["a"][1], sel["b"][1], sel["a"][0], sel["b"][0])
	}
	res, err := eng.Query("EXPLAIN SELECT COUNT(*) FROM zipf WHERE a BETWEEN 2711 AND 5422 AND b BETWEEN 50000 AND 100000")
	if err != nil {
		t.Fatal(err)
	}
	if res.DriverAttr != "b" || res.Decision.Selectivities[0] != sel["b"][0] {
		t.Fatalf("driver = %s at selectivity %v, want b at its exact %v", res.DriverAttr, res.Decision.Selectivities[0], sel["b"][0])
	}
}

func TestQueryConjunctionAggregate(t *testing.T) {
	eng, day, price := queryEngine(t)
	var wantSum int64
	var wantRows int64
	for i := range day {
		if day[i] <= 50 && price[i] >= 50000 {
			wantSum += int64(price[i])
			wantRows++
		}
	}
	res, err := eng.Query("SELECT SUM(price) FROM sales WHERE day <= 50 AND price >= 50000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Sum != wantSum || res.Agg.Count != wantRows {
		t.Fatalf("sum=%d rows=%d, want %d/%d", res.Agg.Sum, res.Agg.Count, wantSum, wantRows)
	}
}

func TestQueryConjunctionUnknownAttr(t *testing.T) {
	eng, _, _ := queryEngine(t)
	if _, err := eng.Query("SELECT day FROM sales WHERE day = 1 AND ghost = 2"); err == nil {
		t.Fatal("unknown residual attribute accepted")
	}
}

// TestAggregateQueryRecyclesBatch guards the release on the aggregate
// paths of QueryContext: aggregation consumes the rowIDs, so the pooled
// batch must go back to the arena instead of leaking to the garbage
// collector. In steady state an identical aggregate query is served
// from recycled buffers; a leak shows up as a fresh arena miss on every
// query (the pool never gets its buffers back).
func TestAggregateQueryRecyclesBatch(t *testing.T) {
	eng, _, _ := queryEngine(t)
	hits := eng.Observer().Metrics.Counter("runtime.arena.hits")
	misses := eng.Observer().Metrics.Counter("runtime.arena.misses")
	const stmt = "SELECT SUM(price) FROM sales WHERE day <= 99"
	for i := 0; i < 4; i++ { // warm the pools
		if _, err := eng.Query(stmt); err != nil {
			t.Fatal(err)
		}
	}
	missesBefore, hitsBefore := misses.Load(), hits.Load()
	const rounds = 8
	var want int64
	for i := 0; i < rounds; i++ {
		res, err := eng.Query(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Agg == nil || res.Agg.Kind != "sum" {
			t.Fatalf("aggregate result missing: %+v", res)
		}
		if i == 0 {
			want = res.Agg.Sum
		} else if res.Agg.Sum != want {
			t.Fatalf("sum drifted across buffer reuse: %d != %d", res.Agg.Sum, want)
		}
	}
	if hits.Load() == hitsBefore {
		t.Fatal("aggregate queries never hit the arena: batches are not being recycled")
	}
	// Tolerate the odd miss (sync.Pool may shed buffers under GC), but a
	// leak produces at least one miss per query. Under the race detector
	// sync.Pool drops ~1/4 of Puts on purpose, so the miss bound cannot
	// hold there; the hits assertion above still proves recycling.
	if got := misses.Load() - missesBefore; !race.Enabled && got >= rounds {
		t.Fatalf("aggregate queries leaked pooled buffers: %d arena misses across %d steady-state queries", got, rounds)
	}
}
