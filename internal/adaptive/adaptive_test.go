package adaptive

import (
	"context"
	"math/rand"
	"testing"

	"fastcolumns/internal/exec"
	"fastcolumns/internal/index"
	"fastcolumns/internal/model"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/storage"
)

func relation(t *testing.T, n int, domain int32) (*exec.Relation, []storage.Value) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	data := make([]storage.Value, n)
	for i := range data {
		data[i] = rng.Int31n(domain)
	}
	col := storage.NewColumn("v", data)
	return &exec.Relation{Column: col, Index: index.Build(col, index.DefaultFanout)}, data
}

func refIDs(data []storage.Value, p scan.Predicate) []storage.RowID {
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

func TestSelectFinishesAsIndexWithinBudget(t *testing.T) {
	rel, data := relation(t, 50000, 1<<20)
	p := scan.Predicate{Lo: 100, Hi: 100 + 1<<12} // ~0.4% selectivity
	res, err := SelectContext(context.Background(), rel, p, 10000, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != FinishedAsIndex || res.Wasted != 0 {
		t.Fatalf("outcome %v wasted %d", res.Outcome, res.Wasted)
	}
	if !equalIDs(res.RowIDs, refIDs(data, p)) {
		t.Fatal("index-path result wrong")
	}
}

func TestSelectMorphsOnBadEstimate(t *testing.T) {
	rel, data := relation(t, 50000, 1<<20)
	p := scan.Predicate{Lo: 0, Hi: 1 << 19} // ~50% selectivity
	budget := 200                           // as if the estimate said ~0.4%
	res, err := SelectContext(context.Background(), rel, p, budget, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != MorphedToScan {
		t.Fatalf("expected morph, got %v", res.Outcome)
	}
	if res.Wasted == 0 || res.Wasted > budget {
		t.Fatalf("wasted %d, want (0, %d]", res.Wasted, budget)
	}
	if !equalIDs(res.RowIDs, refIDs(data, p)) {
		t.Fatal("morphed result wrong")
	}
}

func TestSelectBudgetBoundary(t *testing.T) {
	// A result exactly at the budget must finish as index (no morph).
	rel, data := relation(t, 5000, 100)
	p := scan.Predicate{Lo: 7, Hi: 7}
	want := refIDs(data, p)
	res, err := SelectContext(context.Background(), rel, p, len(want), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != FinishedAsIndex {
		t.Fatalf("exact-budget probe morphed (result %d, budget %d)", len(res.RowIDs), len(want))
	}
	if !equalIDs(res.RowIDs, want) {
		t.Fatal("result wrong")
	}
}

func TestSelectWithoutIndex(t *testing.T) {
	rel := &exec.Relation{Column: storage.NewColumn("v", []storage.Value{1})}
	if _, err := SelectContext(context.Background(), rel, scan.Predicate{Lo: 0, Hi: 5}, 10, exec.Options{}); err == nil {
		t.Fatal("missing index accepted")
	}
}

func TestBudgetFromModel(t *testing.T) {
	n := 1_000_000
	b := BudgetFromModel(n, 4, model.HW1(), model.FittedDesign())
	if b < 100 || b > n/10 {
		t.Fatalf("budget %d implausible for N=%d", b, n)
	}
	// Tiny relation where the scan always wins: morph immediately.
	if b := BudgetFromModel(100, 4, model.HW1(), model.FittedDesign()); b != 1 {
		t.Fatalf("scan-always budget = %d, want 1", b)
	}
}

func TestRangeRowIDsLimit(t *testing.T) {
	rel, data := relation(t, 10000, 1000)
	p := scan.Predicate{Lo: 0, Hi: 499}
	want := refIDs(data, p)
	// Unlimited: complete.
	ids, complete := rel.Index.RangeRowIDsLimit(p.Lo, p.Hi, len(want)+10, nil)
	if !complete || len(ids) != len(want) {
		t.Fatalf("unlimited walk: complete=%v len=%d want %d", complete, len(ids), len(want))
	}
	// Limited: truncated at the budget.
	ids, complete = rel.Index.RangeRowIDsLimit(p.Lo, p.Hi, 50, nil)
	if complete || len(ids) != 50 {
		t.Fatalf("limited walk: complete=%v len=%d", complete, len(ids))
	}
	// Inverted range: trivially complete.
	if _, complete := rel.Index.RangeRowIDsLimit(10, 5, 1, nil); !complete {
		t.Fatal("inverted range should complete")
	}
}
