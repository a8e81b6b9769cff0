package scan

import (
	"fastcolumns/internal/faultinject"
	"fastcolumns/internal/memsim"
	"fastcolumns/internal/storage"
)

// This file wraps each physical layout as a block-addressable source:
// a fixed block grid over the relation, one kernel per block, and an
// optional pruner. Raw, Strided and Packed all satisfy internal/coop's
// Source interface, and the pass driver there is the only code that
// walks their blocks.

// DefaultBlockTuples is the shared-scan block size in tuples, derived
// from the calibrated cache budget in internal/memsim: 16Ki 4-byte
// values are 64 KiB, comfortably cache resident while all q predicates
// visit the block (Figure 2(b)).
const DefaultBlockTuples = memsim.SharedBlockBytes / 4

// CodeBlockTuples is the block size over 16-bit codes, derived from the
// same byte budget: the packed scan streams the same bytes per block
// (twice the tuples), so compressed and uncompressed shared scans make
// the same cache-residency assumption. Kept a multiple of 64 so
// default-sized blocks align with the SWAR kernel's match words.
const CodeBlockTuples = memsim.SharedBlockBytes / 2

// FaultSiteMaterialize fires once per (block, query) in the packed
// kernel, inside the worker. An Error-kind rule fails the pass (the
// first error wins and surfaces from the dispatching call); a
// Panic-kind rule exercises the pool's panic relay.
const FaultSiteMaterialize = "scan.materialize"

// Pruner proves tuple ranges empty for a value range, so a pass can
// skip a block for a query without touching the data. Zonemaps
// (storage.Zonemap) and column imprints (imprints.Index) provide it;
// either composes with any source, since both describe row ranges.
type Pruner interface {
	// Prunes reports whether rows [lo, hi) provably hold no value in
	// [vlo, vhi].
	Prunes(lo, hi int, vlo, vhi storage.Value) bool
}

// RowScanner is a Pruner whose structure resolves finer than a block
// (column imprints: one imprint per cache line). The raw source hands it
// each block a pass does not prune, and it scans only the rows inside
// that it cannot rule out — a 16Ki-row block is almost never empty on
// locally clustered data, while most of its cache lines are.
type RowScanner interface {
	Pruner
	// ScanRows appends the rowIDs in [lo, hi) of data whose value lies
	// in [vlo, vhi] to out, in ascending order.
	ScanRows(data []storage.Value, lo, hi int, vlo, vhi storage.Value, out []storage.RowID) []storage.RowID
}

// grid is the block geometry and pruner every source shares.
type grid struct {
	n, block int
	pruner   Pruner
}

func newGrid(n, blockTuples, defaultBlock int, pruner Pruner) grid {
	if blockTuples <= 0 {
		blockTuples = defaultBlock
	}
	return grid{n: n, block: blockTuples, pruner: pruner}
}

// Rows returns the relation's tuple count.
func (g grid) Rows() int { return g.n }

// Blocks returns the number of blocks covering the relation.
func (g grid) Blocks() int { return (g.n + g.block - 1) / g.block }

// bounds returns block b's tuple range [lo, hi).
func (g grid) bounds(b int) (lo, hi int) {
	lo = b * g.block
	return lo, min(lo+g.block, g.n)
}

// Prune reports whether the pruner proves block b empty for p.
func (g grid) Prune(b int, p Predicate) bool {
	if g.pruner == nil {
		return false
	}
	lo, hi := g.bounds(b)
	return g.pruner.Prunes(lo, hi, p.Lo, p.Hi)
}

// Raw is the source over a contiguous uncompressed column: the 8-way
// unrolled predicated kernel per block, applied by the pruner itself
// when that can skip inside the block.
type Raw struct {
	grid
	data []storage.Value
	rows RowScanner // the pruner, when it is one
}

// NewRaw wraps data in blockTuples-sized blocks (<= 0 selects
// DefaultBlockTuples); pruner may be nil.
func NewRaw(data []storage.Value, blockTuples int, pruner Pruner) *Raw {
	s := &Raw{grid: newGrid(len(data), blockTuples, DefaultBlockTuples, pruner), data: data}
	s.rows, _ = pruner.(RowScanner)
	return s
}

// Bind returns p unchanged: the raw kernel compares values.
func (s *Raw) Bind(p Predicate) Predicate { return p }

// Slack is the rowID headroom ScanBlock needs beyond the matches it
// keeps: the predicated kernel writes the whole block at the cursor.
func (s *Raw) Slack() int { return s.block + 1 }

// ScanBlock appends block b's matches to out.
func (s *Raw) ScanBlock(b int, bound Predicate, out []storage.RowID) ([]storage.RowID, error) {
	lo, hi := s.bounds(b)
	if s.rows != nil {
		return s.rows.ScanRows(s.data, lo, hi, bound.Lo, bound.Hi, out), nil
	}
	return ScanUnrolled(s.data[lo:hi], bound, lo, out), nil
}

// Strided is the source over a column-group member (no raw view): each
// block is walked with the group's stride, paying the strided-access
// penalty once per block instead of once per query.
type Strided struct {
	grid
	col *storage.Column
}

// NewStrided wraps a column-group member; see NewRaw for the arguments.
func NewStrided(c *storage.Column, blockTuples int, pruner Pruner) *Strided {
	return &Strided{grid: newGrid(c.Len(), blockTuples, DefaultBlockTuples, pruner), col: c}
}

// Bind returns p unchanged.
func (s *Strided) Bind(p Predicate) Predicate { return p }

// Slack is one block plus the predication slot, as for Raw.
func (s *Strided) Slack() int { return s.block + 1 }

// ScanBlock appends block b's matches to out.
func (s *Strided) ScanBlock(b int, bound Predicate, out []storage.RowID) ([]storage.RowID, error) {
	lo, hi := s.bounds(b)
	return scanStrided(s.col, bound, lo, hi, out), nil
}

// Packed is the source over a dictionary-compressed column: predicates
// bind to code bounds once (two dictionary probes) and each block of
// word-packed codes is evaluated four lanes at a time by the SWAR
// kernel, halving the bytes streamed (Figure 17). Blocks count 16-bit
// codes and default to CodeBlockTuples.
type Packed struct {
	grid
	col *storage.CompressedColumn
}

// NewPacked wraps a compressed column; see NewRaw for the arguments.
func NewPacked(c *storage.CompressedColumn, blockTuples int, pruner Pruner) *Packed {
	return &Packed{grid: newGrid(c.Len(), blockTuples, CodeBlockTuples, pruner), col: c}
}

// Bind translates p to the code domain: the returned bounds are codes,
// inverted (Lo > Hi) when no dictionary value falls inside p.
func (s *Packed) Bind(p Predicate) Predicate {
	clo, chi, ok := s.col.Dict().EncodeRange(p.Lo, p.Hi)
	if !ok {
		return Predicate{Lo: 1, Hi: 0}
	}
	return Predicate{Lo: storage.Value(clo), Hi: storage.Value(chi)}
}

// Slack is one match word's worth of rows: the SWAR kernel appends
// matches only, so cells need no per-block predication headroom.
func (s *Packed) Slack() int { return swarWordCodes }

// ScanBlock appends block b's matches for code bounds bound to out.
func (s *Packed) ScanBlock(b int, bound Predicate, out []storage.RowID) ([]storage.RowID, error) {
	if bound.Lo > bound.Hi {
		return out, nil
	}
	if err := faultinject.Fire(FaultSiteMaterialize); err != nil {
		return out, err
	}
	lo, hi := s.bounds(b)
	return appendPackedMatches(s.col.PackedCodes(), s.col.Codes(), lo, hi,
		storage.Code(bound.Lo), storage.Code(bound.Hi), out), nil
}
