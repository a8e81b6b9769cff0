package coop

import (
	"fastcolumns/internal/scan"
	"fastcolumns/internal/storage"
)

// Source is the block-kernel interface: one column's block-addressable
// view — a fixed block grid over the relation, a scan kernel per block,
// and a per-query prune check that lets a pass skip a block for a query
// without touching the data. It is the only way a column is scanned;
// internal/scan implements it for the raw, strided (column-group) and
// packed-SWAR layouts, each composable with a zonemap or imprints
// pruner, and a new physical layout becomes a new Source.
type Source interface {
	// Rows returns the relation's tuple count.
	Rows() int
	// Blocks returns the number of blocks in the pass's schedule.
	Blocks() int
	// Bind translates p, once at admission, into the bounds ScanBlock
	// evaluates — p itself for value kernels, dictionary code bounds
	// for the packed kernel.
	Bind(p scan.Predicate) scan.Predicate
	// ScanBlock appends the rowIDs of block b's tuples matching bound
	// (a Bind result) to out and returns the extended slice. RowIDs are
	// relation-absolute and ascending. An error fails the pass.
	ScanBlock(b int, bound scan.Predicate, out []storage.RowID) ([]storage.RowID, error)
	// Prune reports whether block b provably holds no match for p (the
	// unbound predicate), so the pass never scans it for that query.
	Prune(b int, p scan.Predicate) bool
	// Slack is the rowID capacity ScanBlock needs beyond the matches it
	// keeps (predicated kernels write a whole block at the cursor); the
	// pass adds it to every result-cell checkout so sized cells never
	// re-grow mid-scan.
	Slack() int
}
