package exec

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"fastcolumns/internal/bitmap"
	"fastcolumns/internal/imprints"
	"fastcolumns/internal/index"
	"fastcolumns/internal/model"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/storage"
)

func lowCardRelation(t *testing.T, n int, domain int32, sorted bool) (*Relation, []storage.Value) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	data := make([]storage.Value, n)
	for i := range data {
		data[i] = rng.Int31n(domain)
	}
	if sorted {
		sort.Slice(data, func(i, j int) bool { return data[i] < data[j] })
	}
	col := storage.NewColumn("v", data)
	bm, err := bitmap.Build(col)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := imprints.Build(col)
	if err != nil {
		t.Fatal(err)
	}
	return &Relation{
		Column:   col,
		Index:    index.Build(col, index.DefaultFanout),
		Bitmap:   bm,
		Imprints: imp,
	}, data
}

func TestAllThreePathsAgree(t *testing.T) {
	rel, data := lowCardRelation(t, 30000, 200, false)
	preds := []scan.Predicate{
		{Lo: 10, Hi: 20},
		{Lo: 0, Hi: 199},
		{Lo: 150, Hi: 150},
		{Lo: 500, Hi: 600}, // empty
	}
	want := make([][]storage.RowID, len(preds))
	for i, p := range preds {
		want[i] = refSelect(data, p)
	}
	for _, path := range []model.Path{model.PathScan, model.PathIndex, model.PathBitmap} {
		res, err := Run(context.Background(), rel, path, preds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Path != path {
			t.Fatalf("Run(%v) labeled %v", path, res.Path)
		}
		for qi := range preds {
			if !equalIDs(res.RowIDs[qi], want[qi]) {
				t.Fatalf("%v query %d disagrees (%d vs %d rows)",
					path, qi, len(res.RowIDs[qi]), len(want[qi]))
			}
		}
	}
}

func TestImprintsScanPathAgrees(t *testing.T) {
	rel, data := lowCardRelation(t, 40000, 250, true)
	preds := []scan.Predicate{{Lo: 50, Hi: 60}, {Lo: 0, Hi: 249}}
	res, err := RunScan(context.Background(), rel, preds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for qi, p := range preds {
		if !equalIDs(res.RowIDs[qi], refSelect(data, p)) {
			t.Fatalf("imprints scan query %d disagrees", qi)
		}
	}
}

func TestRunBitmapMissing(t *testing.T) {
	rel := &Relation{Column: storage.NewColumn("v", []storage.Value{1, 2})}
	if _, err := RunBitmap(context.Background(), rel, []scan.Predicate{{Lo: 0, Hi: 5}}, Options{}); err == nil {
		t.Fatal("RunBitmap without a bitmap should fail")
	}
}

func TestValidateCatchesBitmapMismatch(t *testing.T) {
	col := storage.NewColumn("v", []storage.Value{1, 2, 3})
	short, err := bitmap.Build(storage.NewColumn("v", []storage.Value{1}))
	if err != nil {
		t.Fatal(err)
	}
	rel := &Relation{Column: col, Bitmap: short}
	if rel.Validate() == nil {
		t.Fatal("bitmap size mismatch accepted")
	}
}
