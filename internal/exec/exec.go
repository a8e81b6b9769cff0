// Package exec implements the select operator of Section 2.1: given a
// column (or column-group member) and a batch of range predicates, it
// produces one rowID result set per query, in rowID order, through either
// access path — a shared sequential scan or a concurrent secondary-index
// scan — so the two are directly interchangeable for the next operator.
package exec

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fastcolumns/internal/bitmap"
	"fastcolumns/internal/coop"
	"fastcolumns/internal/faultinject"
	"fastcolumns/internal/imprints"
	"fastcolumns/internal/index"
	"fastcolumns/internal/model"
	"fastcolumns/internal/obs"
	rt "fastcolumns/internal/runtime"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/stats"
	"fastcolumns/internal/storage"
)

// ctxErr tolerates nil contexts so direct callers (benchmarks, tools) can
// pass context.Background() or nil interchangeably.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Relation bundles one attribute's physical presence: the base column
// view, and optionally a compressed twin, a zonemap, and a secondary
// index. The optimizer consults what exists, and so does the runner: a
// scan takes the best source the relation offers. A caller that wants
// the plain scan beside, say, a compressed twin passes a relation
// without the twin.
type Relation struct {
	Column     *storage.Column
	Compressed *storage.CompressedColumn
	Zonemap    *storage.Zonemap
	Index      *index.Tree
	// Bitmap is the Appendix E value-per-bitmap index, present only on
	// low-cardinality attributes.
	Bitmap *bitmap.Index
	// Imprints accelerates scans with cache-line data skipping (takes
	// precedence over the coarser zonemap).
	Imprints *imprints.Index
	// Histogram estimates selectivity where neither Index nor Bitmap
	// counts it; nil on an attribute that carries either.
	Histogram *stats.Histogram
	// Passes, when non-nil, publishes this attribute's scans under
	// PassKey while they run, so late queries can attach mid-pass; a
	// relation without one scans unpublished.
	Passes  *coop.Manager
	PassKey string
}

// Validate reports structural inconsistencies (mismatched sizes).
func (r *Relation) Validate() error {
	if r.Column == nil {
		return errors.New("exec: relation has no base column")
	}
	n := r.Column.Len()
	if r.Compressed != nil && r.Compressed.Len() != n {
		return fmt.Errorf("exec: compressed column has %d rows, base has %d", r.Compressed.Len(), n)
	}
	if r.Index != nil && r.Index.Len() != n {
		return fmt.Errorf("exec: index has %d entries, base has %d rows", r.Index.Len(), n)
	}
	if r.Bitmap != nil && r.Bitmap.Len() != n {
		return fmt.Errorf("exec: bitmap index has %d rows, base has %d", r.Bitmap.Len(), n)
	}
	if r.Imprints != nil && r.Imprints.Len() != n {
		return fmt.Errorf("exec: imprints cover %d rows, base has %d", r.Imprints.Len(), n)
	}
	return nil
}

// Options tunes the runner.
type Options struct {
	// BlockTuples is the shared-scan block size; <= 0 selects the default.
	BlockTuples int
	// Metrics, when non-nil, receives per-path execution observations:
	// batch and query counters plus a latency histogram per access path.
	// Instrument names are constants, so recording is allocation-free.
	Metrics *obs.Registry
	// Pool is the engine's morsel worker pool; nil selects the
	// process-wide default pool.
	Pool *rt.Pool
	// Arena recycles result buffers across batches; nil allocates
	// plainly (and Result.Release becomes a no-op for those buffers).
	Arena *rt.Arena
	// Hints is the expected result cardinality per query (the
	// optimizer's selectivity estimate times N), used to size arena
	// checkouts so the kernels stop re-growing buffers mid-scan. May be
	// nil or shorter than the batch.
	Hints []int
}

// pool resolves the dispatch pool: the engine's, or the process-wide
// default so direct callers (benchmarks, tools) still parallelize.
func (o Options) pool() *rt.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return rt.Default()
}

// record tallies one executed batch under a path's instruments. The
// names arrive as string constants from the call sites so the lookups
// never build a key at run time.
func (o Options) record(batches, queries, ns string, q int, elapsed time.Duration) {
	if o.Metrics == nil {
		return
	}
	o.Metrics.Counter(batches).Add(1)
	o.Metrics.Counter(queries).Add(int64(q))
	o.Metrics.Histogram(ns).Record(elapsed.Nanoseconds())
}

// Result is the outcome of running one batch through one access path.
type Result struct {
	Path    model.Path
	RowIDs  [][]storage.RowID // one per query, in rowID order
	Elapsed time.Duration
	// Pooled is set when RowIDs alias arena-owned buffers; Release hands
	// them back. Paths that allocate plainly leave it nil.
	Pooled *rt.Results
	// Attached counts the queries a scan pass adopted mid-flight; a pass
	// that adopted any also served their wrap-around ranges, so its
	// Elapsed is not a clean measurement of the batch alone.
	Attached int
}

// Release returns arena-owned result buffers for reuse. The RowIDs must
// not be used afterwards. Optional: unreleased results are simply
// garbage collected. Callers that share or retain result slices (the
// serve path's duplicate-predicate aliasing) must not call it.
func (r *Result) Release() {
	r.Pooled.Release()
	r.Pooled = nil
	r.RowIDs = nil
}

// TotalRows returns the summed result cardinality across the batch.
func (r Result) TotalRows() int {
	t := 0
	for _, ids := range r.RowIDs {
		t += len(ids)
	}
	return t
}

// scanSource picks the relation's scan source — packed codes when a
// compressed twin exists, else the raw or strided base column — with
// the finest pruner present, and returns it with the instrument its
// streaming rate records under and the bytes one pass streams.
func (r *Relation) scanSource(blockTuples int) (src coop.Source, bps string, bytes int64) {
	var pruner scan.Pruner
	bps = "exec.scan.kernel.shared.bps"
	switch {
	case r.Imprints != nil:
		pruner, bps = r.Imprints, "exec.scan.kernel.imprints.bps"
	case r.Zonemap != nil:
		pruner, bps = r.Zonemap, "exec.scan.kernel.zonemap.bps"
	}
	if r.Compressed != nil {
		bytes = int64(r.Compressed.Len()) * int64(r.Compressed.TupleSize())
		return scan.NewPacked(r.Compressed, blockTuples, pruner), "exec.scan.kernel.swar.bps", bytes
	}
	bytes = int64(r.Column.Len()) * int64(r.Column.TupleSize())
	if raw, err := r.Column.Raw(); err == nil {
		return scan.NewRaw(raw, blockTuples, pruner), bps, bytes
	}
	// Column-group member: no raw view exists.
	return scan.NewStrided(r.Column, blockTuples, pruner), "exec.scan.kernel.strided.bps", bytes
}

// RunScan answers the batch with a shared sequential scan: one pass of
// the relation's scan source through the pass driver, whatever the
// layout. Units run as morsels on the pool with arena-backed results,
// and cancellation is observed between them (a cancelled batch stops
// mid-relation).
//
//fclint:owns — Result carries the pooled buffers out; callers release via Result.Pooled.
func RunScan(ctx context.Context, rel *Relation, preds []scan.Predicate, opt Options) (Result, error) {
	if err := rel.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctxErr(ctx); err != nil {
		return Result{}, err
	}
	if err := faultinject.Fire("exec.scan"); err != nil {
		return Result{}, err
	}
	start := time.Now()
	src, bps, bytes := rel.scanSource(opt.BlockTuples)
	var res *rt.Results
	var attached int
	var err error
	if rel.Passes != nil {
		res, attached, err = rel.Passes.Run(ctx, rel.PassKey, opt.pool(), opt.Arena, src, preds, opt.Hints)
	} else {
		res, err = coop.Run(ctx, opt.pool(), opt.Arena, src, preds, opt.Hints)
	}
	if err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)
	opt.record("exec.scan.batches", "exec.scan.queries", "exec.scan.ns", len(preds), elapsed)
	if opt.Metrics != nil && elapsed > 0 {
		// The kernel's achieved streaming rate (bytes of column data per
		// second), so the drift accounting's view of the fitted bandwidth
		// constants can be cross-checked per kernel.
		opt.Metrics.Histogram(bps).Record(bytes * int64(time.Second) / int64(elapsed))
	}
	return Result{Path: model.PathScan, RowIDs: res.RowIDs, Elapsed: elapsed, Pooled: res, Attached: attached}, nil
}

// RunIndex answers the batch with a concurrent secondary-index scan,
// sorting each result into rowID order to stay scan-compatible.
//
//fclint:owns — Result carries the pooled buffers out; callers release via Result.Pooled.
func RunIndex(ctx context.Context, rel *Relation, preds []scan.Predicate, opt Options) (Result, error) {
	if err := rel.Validate(); err != nil {
		return Result{}, err
	}
	if rel.Index == nil {
		return Result{}, errors.New("exec: relation has no secondary index")
	}
	if err := ctxErr(ctx); err != nil {
		return Result{}, err
	}
	if err := faultinject.Fire("exec.index"); err != nil {
		return Result{}, err
	}
	ranges := make([][2]storage.Value, len(preds))
	for i, p := range preds {
		ranges[i] = [2]storage.Value{p.Lo, p.Hi}
	}
	start := time.Now()
	res, err := rel.Index.SharedSelectContext(ctx, opt.pool(), opt.Arena, ranges, opt.Hints)
	if err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)
	opt.record("exec.index.batches", "exec.index.queries", "exec.index.ns", len(preds), elapsed)
	return Result{Path: model.PathIndex, RowIDs: res.RowIDs, Elapsed: elapsed, Pooled: res}, nil
}

// RunBitmap answers the batch with the bitmap index; results emerge in
// rowID order with no sort step.
func RunBitmap(ctx context.Context, rel *Relation, preds []scan.Predicate, opt Options) (Result, error) {
	if err := rel.Validate(); err != nil {
		return Result{}, err
	}
	if rel.Bitmap == nil {
		return Result{}, errors.New("exec: relation has no bitmap index")
	}
	if err := ctxErr(ctx); err != nil {
		return Result{}, err
	}
	if err := faultinject.Fire("exec.bitmap"); err != nil {
		return Result{}, err
	}
	ranges := make([][2]storage.Value, len(preds))
	for i, p := range preds {
		ranges[i] = [2]storage.Value{p.Lo, p.Hi}
	}
	start := time.Now()
	rowIDs := rel.Bitmap.SharedSelect(ranges)
	elapsed := time.Since(start)
	opt.record("exec.bitmap.batches", "exec.bitmap.queries", "exec.bitmap.ns", len(preds), elapsed)
	return Result{Path: model.PathBitmap, RowIDs: rowIDs, Elapsed: elapsed}, nil
}

// Run dispatches to the chosen access path. The context carries the
// batch's deadline/cancellation; checks are cooperative (before the
// kernel, not inside it), so a cancelled batch stops before it starts
// but a running kernel completes.
func Run(ctx context.Context, rel *Relation, path model.Path, preds []scan.Predicate, opt Options) (Result, error) {
	if err := ctxErr(ctx); err != nil {
		return Result{}, err
	}
	if err := faultinject.Fire("exec.run"); err != nil {
		return Result{}, err
	}
	switch path {
	case model.PathIndex:
		return RunIndex(ctx, rel, preds, opt)
	case model.PathBitmap:
		return RunBitmap(ctx, rel, preds, opt)
	default:
		return RunScan(ctx, rel, preds, opt)
	}
}

// RunCount answers COUNT(*) for the batch without materializing rowIDs:
// the tree and bitmap count in their own structures, the scan counts in
// a write-free pass. Returns one count per query. Cancellation is
// cooperative at per-query granularity. Executions record under the
// exec.count.* instruments, like the materializing paths.
func RunCount(ctx context.Context, rel *Relation, path model.Path, preds []scan.Predicate, opt Options) ([]int, error) {
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := faultinject.Fire("exec.count"); err != nil {
		return nil, err
	}
	start := time.Now()
	counts := make([]int, len(preds))
	switch path {
	case model.PathIndex:
		if rel.Index == nil {
			return nil, errors.New("exec: relation has no secondary index")
		}
		for i, p := range preds {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			counts[i] = rel.Index.RangeCount(p.Lo, p.Hi)
		}
	case model.PathBitmap:
		if rel.Bitmap == nil {
			return nil, errors.New("exec: relation has no bitmap index")
		}
		for i, p := range preds {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			counts[i] = rel.Bitmap.Count(p.Lo, p.Hi)
		}
	default:
		if data, rawErr := rel.Column.Raw(); rawErr == nil {
			for i, p := range preds {
				if err := ctxErr(ctx); err != nil {
					return nil, err
				}
				counts[i] = scan.Count(data, p)
			}
		} else {
			for i, p := range preds {
				if err := ctxErr(ctx); err != nil {
					return nil, err
				}
				n := rel.Column.Len()
				c := 0
				for r := 0; r < n; r++ {
					if p.Matches(rel.Column.Get(r)) {
						c++
					}
				}
				counts[i] = c
			}
		}
	}
	opt.record("exec.count.batches", "exec.count.queries", "exec.count.ns", len(preds), time.Since(start))
	return counts, nil
}
