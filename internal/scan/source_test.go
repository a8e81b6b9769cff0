package scan

import (
	"testing"

	"fastcolumns/internal/storage"
)

// blockSource is the method set the sources share (coop.Source, which
// this package cannot import without a cycle).
type blockSource interface {
	Blocks() int
	Bind(p Predicate) Predicate
	ScanBlock(b int, bound Predicate, out []storage.RowID) ([]storage.RowID, error)
	Prune(b int, p Predicate) bool
}

// sweep is the test-side block loop: every block of src, in order, for
// every predicate — what the pass driver in internal/coop does, minus
// the pool, the arena and attach. It exists so the sources' kernels and
// pruners can be pinned to the reference from inside this package.
func sweep(t *testing.T, src blockSource, preds []Predicate) [][]storage.RowID {
	t.Helper()
	out := make([][]storage.RowID, len(preds))
	for qi, p := range preds {
		bound := src.Bind(p)
		for b := 0; b < src.Blocks(); b++ {
			if src.Prune(b, p) {
				continue
			}
			var err error
			if out[qi], err = src.ScanBlock(b, bound, out[qi]); err != nil {
				t.Fatalf("ScanBlock(%d, %+v): %v", b, p, err)
			}
		}
	}
	return out
}

// sweep1 sweeps a single predicate.
func sweep1(t *testing.T, src blockSource, p Predicate) []storage.RowID {
	t.Helper()
	return sweep(t, src, []Predicate{p})[0]
}
