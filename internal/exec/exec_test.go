package exec

import (
	"context"
	"math/rand"
	"testing"

	"fastcolumns/internal/index"
	"fastcolumns/internal/model"
	rt "fastcolumns/internal/runtime"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/storage"
)

func buildRelation(t *testing.T, seed int64, n int, domain int32) (*Relation, []storage.Value) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]storage.Value, n)
	for i := range data {
		data[i] = rng.Int31n(domain)
	}
	col := storage.NewColumn("v", data)
	cc, err := storage.Compress(col)
	if err != nil {
		t.Fatal(err)
	}
	return &Relation{
		Column:     col,
		Compressed: cc,
		Zonemap:    storage.BuildZonemap(col, 512),
		Index:      index.Build(col, index.DefaultFanout),
	}, data
}

func refSelect(data []storage.Value, p scan.Predicate) []storage.RowID {
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

func TestBothPathsProduceIdenticalResults(t *testing.T) {
	rel, data := buildRelation(t, 1, 40000, 8000)
	preds := []scan.Predicate{
		{Lo: 0, Hi: 100},
		{Lo: 4000, Hi: 4100},
		{Lo: 7999, Hi: 7999},
		{Lo: 9000, Hi: 9999}, // empty
		{Lo: 0, Hi: 7999},    // everything
	}
	// The relation says what exists: each variant is a view of the same
	// attribute with a different set of scan structures (and so a
	// different scan source), all of which must agree with the index.
	pool := rt.NewPool(4, nil)
	defer pool.Close()
	variants := []struct {
		rel *Relation
		opt Options
	}{
		{rel, Options{}}, // packed + zonemap
		{&Relation{Column: rel.Column, Index: rel.Index}, Options{}},
		{&Relation{Column: rel.Column, Index: rel.Index, Compressed: rel.Compressed}, Options{}},
		{&Relation{Column: rel.Column, Index: rel.Index, Zonemap: rel.Zonemap}, Options{}},
		{&Relation{Column: rel.Column, Index: rel.Index}, Options{BlockTuples: 1024, Pool: pool}},
	}
	for _, v := range variants {
		rel, opt := v.rel, v.opt
		scanRes, err := RunScan(context.Background(), rel, preds, opt)
		if err != nil {
			t.Fatal(err)
		}
		idxRes, err := RunIndex(context.Background(), rel, preds, opt)
		if err != nil {
			t.Fatal(err)
		}
		if scanRes.Path != model.PathScan || idxRes.Path != model.PathIndex {
			t.Fatalf("paths mislabeled: %v %v", scanRes.Path, idxRes.Path)
		}
		for qi, p := range preds {
			want := refSelect(data, p)
			if !equalIDs(scanRes.RowIDs[qi], want) {
				t.Fatalf("opt %+v scan query %d disagrees", opt, qi)
			}
			if !equalIDs(idxRes.RowIDs[qi], want) {
				t.Fatalf("opt %+v index query %d disagrees", opt, qi)
			}
		}
	}
}

func TestRunDispatch(t *testing.T) {
	rel, data := buildRelation(t, 2, 5000, 1000)
	preds := []scan.Predicate{{Lo: 10, Hi: 50}}
	for _, path := range []model.Path{model.PathScan, model.PathIndex} {
		res, err := Run(context.Background(), rel, path, preds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Path != path {
			t.Fatalf("Run(%v) labeled %v", path, res.Path)
		}
		if !equalIDs(res.RowIDs[0], refSelect(data, preds[0])) {
			t.Fatalf("Run(%v) wrong rows", path)
		}
	}
}

func TestStridedRelationScan(t *testing.T) {
	g, err := storage.NewColumnGroup(
		[]string{"a", "b"},
		[][]storage.Value{{1, 2, 3, 4, 5}, {10, 20, 30, 40, 50}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rel := &Relation{Column: g.Column("b")}
	res, err := RunScan(context.Background(), rel, []scan.Predicate{{Lo: 20, Hi: 40}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(res.RowIDs[0], []storage.RowID{1, 2, 3}) {
		t.Fatalf("strided scan = %v", res.RowIDs[0])
	}
}

func TestIndexMissing(t *testing.T) {
	rel := &Relation{Column: storage.NewColumn("v", []storage.Value{1, 2, 3})}
	if _, err := RunIndex(context.Background(), rel, []scan.Predicate{{Lo: 0, Hi: 5}}, Options{}); err == nil {
		t.Fatal("RunIndex without an index should fail")
	}
}

func TestRelationValidate(t *testing.T) {
	if err := (&Relation{}).Validate(); err == nil {
		t.Fatal("empty relation accepted")
	}
	col := storage.NewColumn("v", []storage.Value{1, 2, 3})
	short := index.Build(storage.NewColumn("v", []storage.Value{1}), 8)
	if err := (&Relation{Column: col, Index: short}).Validate(); err == nil {
		t.Fatal("index size mismatch accepted")
	}
}

func TestTotalRows(t *testing.T) {
	r := Result{RowIDs: [][]storage.RowID{{1, 2}, nil, {3}}}
	if got := r.TotalRows(); got != 3 {
		t.Fatalf("TotalRows = %d", got)
	}
}

func TestRunCountMatchesMaterialized(t *testing.T) {
	rel, data := buildRelation(t, 3, 30000, 6000)
	preds := []scan.Predicate{
		{Lo: 0, Hi: 100}, {Lo: 3000, Hi: 3200}, {Lo: 9000, Hi: 9999}, {Lo: 0, Hi: 5999},
	}
	want := make([]int, len(preds))
	for i, p := range preds {
		want[i] = len(refSelect(data, p))
	}
	for _, path := range []model.Path{model.PathScan, model.PathIndex} {
		counts, err := RunCount(context.Background(), rel, path, preds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range preds {
			if counts[i] != want[i] {
				t.Fatalf("%v count[%d] = %d, want %d", path, i, counts[i], want[i])
			}
		}
	}
	// Strided column group.
	g, err := storage.NewColumnGroup([]string{"a", "b"},
		[][]storage.Value{{1, 2, 3, 4}, {5, 6, 7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := RunCount(context.Background(), &Relation{Column: g.Column("b")}, model.PathScan,
		[]scan.Predicate{{Lo: 6, Hi: 7}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 2 {
		t.Fatalf("strided count = %d", counts[0])
	}
	// Missing structures error cleanly.
	bare := &Relation{Column: storage.NewColumn("v", data)}
	if _, err := RunCount(context.Background(), bare, model.PathIndex, preds, Options{}); err == nil {
		t.Fatal("count via missing index accepted")
	}
	if _, err := RunCount(context.Background(), bare, model.PathBitmap, preds, Options{}); err == nil {
		t.Fatal("count via missing bitmap accepted")
	}
}
