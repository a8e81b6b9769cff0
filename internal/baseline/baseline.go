// Package baseline implements the comparator engines of Figure 19:
//
//   - RowStoreScan: a Postgres-like row store scanning tuple-at-a-time
//     with branching predicates on one thread, dragging whole ~200-byte
//     rows through memory.
//   - RowStoreIndexSelect: the same row store with a disk-era B+-tree
//     (fanout 250); every match triggers a full-row fetch (tuple
//     reconstruction by random access).
//   - ColumnScan: a MonetDB-like engine — tight columnar loops, multiple
//     hardware threads, no scan sharing and no secondary indexes.
//
// These are deliberately simple engines: the point of Figure 19 is shape
// (fast scans changed the picture; FastColumns matches the columnar scan
// and additionally wins at low selectivity via APS), not feature parity.
package baseline

import (
	"context"

	"fastcolumns/internal/coop"
	"fastcolumns/internal/index"
	rt "fastcolumns/internal/runtime"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/storage"
)

// DiskEraFanout is the branching factor of the row store's index.
const DiskEraFanout = 250

// RowWidth is the attribute count of the simulated row store (TPC-H
// lineitem has 16 attributes; 16 x 4-byte values + padding columns stand
// in for its ~200-byte rows).
const RowWidth = 16

// RowStore is the Postgres-like engine: one table of full rows plus an
// optional secondary index on one attribute.
type RowStore struct {
	group *storage.ColumnGroup
	attr  string
	tree  *index.Tree
}

// NewRowStore builds the row store with the predicated attribute plus
// enough synthetic neighbor attributes to reach RowWidth columns.
func NewRowStore(attr string, values []storage.Value, withIndex bool) (*RowStore, error) {
	names := make([]string, RowWidth)
	cols := make([][]storage.Value, RowWidth)
	names[0] = attr
	cols[0] = values
	for j := 1; j < RowWidth; j++ {
		names[j] = attr + "_pad" + string(rune('a'+j-1))
		pad := make([]storage.Value, len(values))
		for i := range pad {
			pad[i] = storage.Value(i ^ j)
		}
		cols[j] = pad
	}
	g, err := storage.NewColumnGroup(names, cols)
	if err != nil {
		return nil, err
	}
	rs := &RowStore{group: g, attr: attr}
	if withIndex {
		rs.tree = index.Build(g.Column(attr), DiskEraFanout)
	}
	return rs, nil
}

// Scan runs the tuple-at-a-time branching scan over full rows. The sink
// return defeats dead-code elimination: a row store touches the whole row
// to evaluate any attribute.
func (r *RowStore) Scan(p scan.Predicate) (ids []storage.RowID, sink storage.Value) {
	col := r.group.Column(r.attr)
	n := col.Len()
	for i := 0; i < n; i++ {
		// Touch the full row the way a slotted-page iterator materializes
		// the tuple before evaluating the predicate.
		rowSum := storage.Value(0)
		for _, name := range r.group.Names() {
			rowSum += r.group.Column(name).Get(i)
		}
		sink ^= rowSum
		if v := col.Get(i); v >= p.Lo && v <= p.Hi {
			ids = append(ids, storage.RowID(i))
		}
	}
	return ids, sink
}

// IndexSelect probes the secondary index then reconstructs every matching
// row by random access (the classic secondary-index penalty that kept the
// historical threshold so high). Returns nil ids when no index exists.
func (r *RowStore) IndexSelect(p scan.Predicate) (ids []storage.RowID, sink storage.Value) {
	if r.tree == nil {
		return nil, 0
	}
	ids = r.tree.Select(p.Lo, p.Hi, nil)
	for _, id := range ids {
		rowSum := storage.Value(0)
		for _, name := range r.group.Names() {
			rowSum += r.group.Column(name).Get(int(id))
		}
		sink ^= rowSum
	}
	return ids, sink
}

// HasIndex reports whether the row store carries a secondary index.
func (r *RowStore) HasIndex() bool { return r.tree != nil }

// ColumnScan is the MonetDB-like access path: a tight multi-core scan of
// just the predicated column, query-at-a-time (no sharing, no index) —
// a single-query pass over the raw source on the default pool.
//
//fclint:owns — the pass ran with a nil arena, so the rowIDs are heap-backed and the caller's.
func ColumnScan(ctx context.Context, values []storage.Value, p scan.Predicate) ([]storage.RowID, error) {
	res, err := coop.Run(ctx, rt.Default(), nil, scan.NewRaw(values, 0, nil), []scan.Predicate{p}, nil)
	if err != nil {
		return nil, err
	}
	return res.RowIDs[0], nil
}
