// Package fastcolumns is a main-memory analytical storage and execution
// engine with cost-based access path selection, reproducing "Access Path
// Selection in Main-Memory Optimized Data Systems: Should I Scan or
// Should I Probe?" (Kester, Athanassoulis, Idreos; SIGMOD 2017).
//
// The engine stores fixed-width integer attributes in columns or
// column-groups, optionally with order-preserving dictionary compression,
// zonemaps, column imprints, secondary B+-trees, and (for low-cardinality
// attributes) bitmap indexes. Batches of range-select queries are
// answered through the cheapest available access path — a shared
// sequential scan, a concurrent secondary-index scan, or a bitmap probe —
// chosen at run time by the APS cost model, which weighs query
// concurrency and total selectivity against the machine's memory
// hierarchy (not just a fixed selectivity threshold). A small DSL
// (Engine.Query) exposes selects and aggregates; tables persist to disk
// with Table.Save / Engine.LoadTable.
//
// Quick start:
//
//	eng := fastcolumns.New(fastcolumns.Config{})
//	tbl, _ := eng.CreateTable("events")
//	tbl.AddColumn("ts", data)
//	tbl.CreateIndex("ts")
//	res, _ := tbl.SelectBatch("ts", []fastcolumns.Predicate{{Lo: 10, Hi: 99}})
//	// res.Decision.Path says whether the optimizer scanned or probed.
package fastcolumns

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fastcolumns/internal/bitmap"
	"fastcolumns/internal/coop"
	"fastcolumns/internal/exec"
	"fastcolumns/internal/imprints"
	"fastcolumns/internal/index"
	"fastcolumns/internal/memsim"
	"fastcolumns/internal/model"
	"fastcolumns/internal/obs"
	"fastcolumns/internal/optimizer"
	rt "fastcolumns/internal/runtime"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/stats"
	"fastcolumns/internal/storage"
)

// Value is the engine's fixed-width attribute type (32-bit integers, as
// in the paper's experiments).
type Value = storage.Value

// RowID is a tuple position in a dense column; select operators return
// collections of RowIDs in ascending order.
type RowID = storage.RowID

// Predicate is an inclusive range predicate (point queries have Lo == Hi).
type Predicate = scan.Predicate

// Hardware describes a machine profile for the cost model.
type Hardware = model.Hardware

// Path identifies the access path the optimizer chose.
type Path = model.Path

// Decision records one access-path selection: the APS ratio, the
// selectivity estimates behind it, and the (microsecond-scale) time the
// decision itself took.
type Decision = optimizer.Decision

// Re-exported path constants.
const (
	PathScan   = model.PathScan
	PathIndex  = model.PathIndex
	PathBitmap = model.PathBitmap
)

// DefaultHardware returns the paper's primary server profile (HW1).
func DefaultHardware() Hardware { return model.HW1() }

// CalibrateHardware measures the host's memory bandwidth and latency
// (the Intel Memory Latency Checker step of Section 3) and returns a
// profile for Config.Hardware. It takes a few hundred milliseconds.
func CalibrateHardware() Hardware { return memsim.Calibrate(0) }

// Config tunes an Engine. The zero value is usable: HW1 hardware, all
// cores, fitted model constants.
type Config struct {
	// Hardware is the machine profile the optimizer models. Zero value
	// selects the paper's HW1; use CalibrateHardware for the host.
	Hardware Hardware
	// Workers sizes the engine's morsel worker pool (<= 0: GOMAXPROCS).
	Workers int
	// Fanout sets the B+-tree branching factor (<= 0: the memory-tuned 21).
	Fanout int
	// TraceCap bounds the decision trace ring buffer (<= 0: 1024 entries).
	TraceCap int
	// BlockTuples is the shared-scan block size in tuples (<= 0:
	// scan.DefaultBlockTuples, 16Ki — 64 KiB blocks).
	BlockTuples int
	// ArenaRetain caps the rowID capacity (entries) of buffers the
	// result arena keeps across batches (<= 0: the default 4M).
	ArenaRetain int
}

// Engine is a FastColumns instance: a set of tables plus the APS
// optimizer configured for one machine profile.
type Engine struct {
	opt         *optimizer.Optimizer
	fanout      int
	blockTuples int
	observer    *obs.Observer
	pool        *rt.Pool
	arena       *rt.Arena
	// passes publishes every table scan while it runs, so a Cooperative
	// server's late submissions can attach to it mid-pass.
	passes *coop.Manager

	mu     sync.RWMutex
	tables map[string]*Table
}

// New creates an engine.
func New(cfg Config) *Engine {
	hw := cfg.Hardware
	if hw.ScanBandwidth == 0 {
		hw = model.HW1()
	}
	fanout := cfg.Fanout
	if fanout <= 0 {
		fanout = index.DefaultFanout
	}
	observer := obs.NewObserver(cfg.TraceCap)
	e := &Engine{
		opt:         optimizer.New(hw),
		fanout:      fanout,
		blockTuples: cfg.BlockTuples,
		observer:    observer,
		pool:        rt.NewPool(cfg.Workers, observer.Metrics),
		arena:       rt.NewArena(cfg.ArenaRetain, observer.Metrics),
		passes:      coop.NewManager(coop.Options{Metrics: observer.Metrics}),
		tables:      make(map[string]*Table),
	}
	e.opt.SetMetrics(e.observer.Metrics)
	return e
}

// Close shuts the engine down: the worker pool's queued morsels drain and
// the workers exit. Close the engine after any Server built on it.
// Idempotent; queries issued after Close still answer correctly (morsel
// dispatch degrades to inline execution).
func (e *Engine) Close() {
	e.pool.Close()
}

// Observer exposes the engine's observability layer: the metrics
// registry, the APS decision trace, and the model-drift accounting.
// Every batch the engine executes is recorded here.
func (e *Engine) Observer() *obs.Observer { return e.observer }

// Observe snapshots the engine's observability state: all metrics (with
// histogram quantiles), the most recent APS decisions, and the
// model-drift report that says whether the fitted cost-model constants
// still describe this host.
func (e *Engine) Observe() obs.Snapshot { return e.observer.Snapshot() }

// Hardware returns the profile the optimizer models: the configured one,
// or HW1 when Config.Hardware was left zero.
func (e *Engine) Hardware() Hardware { return e.opt.HW() }

// CreateTable registers a new empty table.
func (e *Engine) CreateTable(name string) (*Table, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.tables[name]; ok {
		return nil, fmt.Errorf("fastcolumns: table %q already exists", name)
	}
	t := &Table{
		engine: e,
		st:     storage.NewTable(name),
		rels:   make(map[string]*exec.Relation),
	}
	e.tables[name] = t
	return t, nil
}

// Table looks up a table by name.
func (e *Engine) Table(name string) (*Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("fastcolumns: no table %q", name)
	}
	return t, nil
}

// Table is one relation: columnar (or hybrid) storage plus per-attribute
// access structures and statistics.
type Table struct {
	engine *Engine

	mu   sync.RWMutex
	st   *storage.Table
	rels map[string]*exec.Relation
}

// Name returns the table name.
func (t *Table) Name() string { return t.st.Name() }

// Rows returns the read-store tuple count.
func (t *Table) Rows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.st.Rows()
}

// AddColumn installs a contiguous attribute.
func (t *Table) AddColumn(name string, data []Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.st.AddColumn(name, data); err != nil {
		return err
	}
	return t.buildRelation(name)
}

// AddColumnGroup installs a hybrid column-group layout over the named
// attributes. Scans over any member stream the whole group's tuples,
// which shifts access path selection towards the index (Figure 15).
func (t *Table) AddColumnGroup(names []string, cols [][]Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.st.AddGroup(names, cols); err != nil {
		return err
	}
	for _, name := range names {
		if err := t.buildRelation(name); err != nil {
			return err
		}
	}
	return nil
}

// buildRelation materializes the execution view of a just-added
// attribute. Caller holds t.mu for writing.
func (t *Table) buildRelation(attr string) error {
	col, err := t.st.Column(attr)
	if err != nil {
		return err
	}
	t.rels[attr] = &exec.Relation{Column: col, Passes: t.engine.passes, PassKey: passKey(t.st.Name(), attr)}
	return nil
}

// passKey names one attribute's stream of batches and passes: the
// scheduler groups submissions by it and the pass manager publishes
// scans under it.
func passKey(table, attr string) string { return table + "\x00" + attr }

// relation returns the execution view of an attribute. Caller holds t.mu
// (read suffices; views are created eagerly when attributes are added).
func (t *Table) relation(attr string) (*exec.Relation, error) {
	rel, ok := t.rels[attr]
	if !ok {
		return nil, fmt.Errorf("fastcolumns: table %q has no attribute %q", t.st.Name(), attr)
	}
	return rel, nil
}

// CreateIndex bulk-loads a secondary B+-tree over the attribute. The
// tree counts the attribute's selectivities exactly, so it replaces any
// histogram Analyze built.
func (t *Table) CreateIndex(attr string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	rel, err := t.relation(attr)
	if err != nil {
		return err
	}
	rel.Index = index.Build(rel.Column, t.engine.fanout)
	rel.Histogram = nil
	return nil
}

// CreateBitmapIndex builds the value-per-bitmap secondary index over a
// low-cardinality attribute (256 distinct values or fewer). The optimizer
// then arbitrates among scan, B+-tree, and bitmap per batch. The bitmap
// counts the attribute's selectivities exactly, so it replaces any
// histogram Analyze built.
func (t *Table) CreateBitmapIndex(attr string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	rel, err := t.relation(attr)
	if err != nil {
		return err
	}
	bm, err := bitmap.Build(rel.Column)
	if err != nil {
		return err
	}
	rel.Bitmap = bm
	rel.Histogram = nil
	return nil
}

// BuildImprints attaches cache-line-granular data skipping to a
// contiguous attribute; it shines on clustered (naturally ordered) data.
// A scan pass first skips every block the imprints prove empty for a
// query, then scans only the surviving cache lines inside the blocks
// that remain. Over a Compress-ed attribute the packed kernel scans
// surviving blocks whole: there the imprints prune at block grain only.
func (t *Table) BuildImprints(attr string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	rel, err := t.relation(attr)
	if err != nil {
		return err
	}
	imp, err := imprints.Build(rel.Column)
	if err != nil {
		return err
	}
	rel.Imprints = imp
	return nil
}

// Compress builds the order-preserving dictionary twin of a contiguous
// attribute; scans then run over 16-bit codes.
func (t *Table) Compress(attr string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	rel, err := t.relation(attr)
	if err != nil {
		return err
	}
	cc, err := storage.Compress(rel.Column)
	if err != nil {
		return err
	}
	rel.Compressed = cc
	return nil
}

// BuildZonemap attaches data-skipping bounds with the given zone size.
func (t *Table) BuildZonemap(attr string, zoneSize int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	rel, err := t.relation(attr)
	if err != nil {
		return err
	}
	rel.Zonemap = storage.BuildZonemap(rel.Column, zoneSize)
	return nil
}

// Analyze builds the equi-depth histogram that estimates the
// attribute's selectivities for the optimizer, the query planner and
// mid-pass attach, on an attribute that has neither a secondary index
// nor a bitmap index. Those count selectivities exactly, so on an
// attribute that has either Analyze builds nothing and returns nil, and
// CreateIndex and CreateBitmapIndex drop a histogram built earlier.
// Merge rebuilds the histogram over the merged rows. A merge that widens
// a bitmap-indexed attribute's domain past bitmap range drops the
// bitmap, and the attribute then has no statistics until the next
// Analyze.
func (t *Table) Analyze(attr string, buckets int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	rel, err := t.relation(attr)
	if err != nil {
		return err
	}
	if rel.Index != nil || rel.Bitmap != nil {
		return nil
	}
	h, err := stats.BuildHistogram(rel.Column, buckets)
	if err != nil {
		return err
	}
	rel.Histogram = h
	return nil
}

// HasIndex reports whether the attribute carries a secondary index.
func (t *Table) HasIndex(attr string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rel, ok := t.rels[attr]
	return ok && rel.Index != nil
}

// BatchResult is the outcome of answering a batch of select queries.
type BatchResult struct {
	// RowIDs holds one ascending result set per query, in batch order.
	RowIDs [][]RowID
	// Decision is the access path selection that produced the results.
	Decision Decision
	// Elapsed is the execution time (excluding optimization).
	Elapsed time.Duration

	pooled *rt.Results
}

// Release hands the result buffers back to the engine's arena for the
// next batch to reuse; RowIDs must not be used afterwards. Optional —
// results simply become garbage if never released — but the engine's
// steady-state zero-allocation path needs it. Callers that share result
// slices (the serve path aliases duplicate predicates' results across
// submitters) must not release.
func (r *BatchResult) Release() {
	r.pooled.Release()
	r.pooled = nil
	r.RowIDs = nil
}

// SelectBatch answers q concurrent range queries over one attribute,
// performing run-time access path selection for the batch as a whole.
func (t *Table) SelectBatch(attr string, preds []Predicate) (BatchResult, error) {
	return t.SelectBatchContext(context.Background(), attr, preds)
}

// SelectBatchContext is SelectBatch with a deadline/cancellation context.
// Cancellation is cooperative: it is honored before execution starts and
// between execution phases, not inside a running kernel.
//
//fclint:owns — the caller receives pooled RowIDs and the Release obligation.
func (t *Table) SelectBatchContext(ctx context.Context, attr string, preds []Predicate) (BatchResult, error) {
	if len(preds) == 0 {
		return BatchResult{}, fmt.Errorf("fastcolumns: empty batch")
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	rel, err := t.relation(attr)
	if err != nil {
		return BatchResult{}, err
	}
	d := t.engine.opt.Decide(rel, preds)
	opt := t.execOptions()
	opt.Hints = cardinalityHints(d.Selectivities, rel.Column.Len())
	res, err := exec.Run(ctx, rel, d.Path, preds, opt)
	if err != nil {
		return BatchResult{}, err
	}
	t.observeBatch(attr, rel, d, res.Elapsed, res.Attached)
	return BatchResult{RowIDs: res.RowIDs, Decision: d, Elapsed: res.Elapsed, pooled: res.Pooled}, nil
}

// cardinalityHints turns the optimizer's per-query selectivities into
// expected result cardinalities, which size the arena's buffer checkouts
// so scan kernels stop re-growing mid-scan.
func cardinalityHints(sels []float64, n int) []int {
	if len(sels) == 0 {
		return nil
	}
	hints := make([]int, len(sels))
	for i, s := range sels {
		hints[i] = int(s*float64(n)) + 1
	}
	return hints
}

// observeBatch folds one executed batch into the engine's observability
// layer: a decision-trace entry, the drift accumulator (predicted cost of
// the chosen path vs measured wall time), and the batch latency
// histogram. attached is the number of queries a scan pass adopted
// mid-flight. Everything here is allocation-free on the warm path.
func (t *Table) observeBatch(attr string, rel *exec.Relation, d Decision, elapsed time.Duration, attached int) {
	o := t.engine.observer
	e := obs.TraceEntry{
		At:             time.Now(),
		Table:          t.st.Name(),
		Attr:           attr,
		Q:              len(d.Selectivities),
		N:              rel.Column.Len(),
		TupleSize:      float64(rel.Column.TupleSize()),
		Path:           d.Path.String(),
		Kernel:         d.ScanKernel,
		Forced:         d.Forced,
		Ratio:          d.Ratio,
		PredScanCost:   d.ScanCost,
		PredIndexCost:  d.IndexCost,
		PredChosenCost: d.ChosenCost,
		Elapsed:        elapsed,
	}
	e.SetSelectivities(d.Selectivities)
	if attached > 0 {
		// The pass also served the queries it adopted and their
		// wrap-around ranges, so its wall time is not a clean measurement
		// of the predicted shared-scan cost: trace it under its own name
		// and keep it out of the drift cells. A pass nobody attached to
		// is the plain shared scan and is recorded below.
		e.Path = "coop(" + optimizer.KernelShared + ")"
		if d.ScanKernel == optimizer.KernelSWAR {
			e.Path = "coop(" + optimizer.KernelSWAR + ")"
		}
		o.Trace.Append(e)
		o.Metrics.Counter("engine.coop_batches").Add(1)
		o.Metrics.Histogram("engine.batch_ns").Record(elapsed.Nanoseconds())
		return
	}
	o.Trace.Append(e)
	// Drift cells key on the kernel-aware path name (e.g. "scan(swar)"
	// over a compressed twin), so a stale packed fit flags separately.
	o.Drift.Record(d.DriftPath(), d.MeanSelectivity(), d.ChosenCost, elapsed.Seconds())
	o.Metrics.Histogram("engine.batch_ns").Record(elapsed.Nanoseconds())
}

// Count answers COUNT(*) for a batch of range queries without
// materializing rowIDs: the access path is still chosen by APS, but the
// tree and bitmap count inside their structures and the scan skips
// result writing — the COUNT(*) fast path.
func (t *Table) Count(attr string, preds []Predicate) ([]int, Decision, error) {
	return t.CountContext(context.Background(), attr, preds)
}

// CountContext is Count with a deadline/cancellation context.
func (t *Table) CountContext(ctx context.Context, attr string, preds []Predicate) ([]int, Decision, error) {
	if len(preds) == 0 {
		return nil, Decision{}, fmt.Errorf("fastcolumns: empty batch")
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	rel, err := t.relation(attr)
	if err != nil {
		return nil, Decision{}, err
	}
	d := t.engine.opt.Decide(rel, preds)
	counts, err := exec.RunCount(ctx, rel, d.Path, preds, t.execOptions())
	if err != nil {
		return nil, Decision{}, err
	}
	return counts, d, nil
}

// Select answers one range query (a batch of one).
//
//fclint:owns — single-query wrapper over SelectBatch; same ownership contract.
func (t *Table) Select(attr string, lo, hi Value) ([]RowID, Decision, error) {
	res, err := t.SelectBatch(attr, []Predicate{{Lo: lo, Hi: hi}})
	if err != nil {
		return nil, Decision{}, err
	}
	return res.RowIDs[0], res.Decision, nil
}

// Explain runs access path selection for a batch without executing it.
func (t *Table) Explain(attr string, preds []Predicate) (Decision, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rel, err := t.relation(attr)
	if err != nil {
		return Decision{}, err
	}
	return t.engine.opt.Decide(rel, preds), nil
}

// SelectVia bypasses the optimizer and answers the batch through the
// given access path (for experiments and baselines).
func (t *Table) SelectVia(path Path, attr string, preds []Predicate) (BatchResult, error) {
	return t.SelectViaContext(context.Background(), path, attr, preds)
}

// SelectViaContext is SelectVia with a deadline/cancellation context. A
// forced scan takes the best source the attribute offers (packed codes,
// pruners), exactly as an APS-chosen one would.
//
//fclint:owns — the caller receives pooled RowIDs and the Release obligation.
func (t *Table) SelectViaContext(ctx context.Context, path Path, attr string, preds []Predicate) (BatchResult, error) {
	return t.selectVia(ctx, path, attr, preds, false)
}

// selectVia answers the batch through path. baseOnly is the server's
// safe fallback: the scan runs over the base column alone — no
// compressed twin, no pruner, unpublished — so it needs no auxiliary
// structure (one of which may be what just failed) to be correct.
//
//fclint:owns — the caller receives pooled RowIDs and the Release obligation.
func (t *Table) selectVia(ctx context.Context, path Path, attr string, preds []Predicate, baseOnly bool) (BatchResult, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rel, err := t.relation(attr)
	if err != nil {
		return BatchResult{}, err
	}
	if baseOnly {
		rel = &exec.Relation{Column: rel.Column}
	}
	res, err := exec.Run(ctx, rel, path, preds, t.execOptions())
	if err != nil {
		return BatchResult{}, err
	}
	return BatchResult{
		RowIDs:   res.RowIDs,
		Decision: Decision{Path: path, Forced: true},
		Elapsed:  res.Elapsed,
		pooled:   res.Pooled,
	}, nil
}

func (t *Table) execOptions() exec.Options {
	return exec.Options{
		BlockTuples: t.engine.blockTuples,
		Metrics:     t.engine.observer.Metrics,
		Pool:        t.engine.pool,
		Arena:       t.engine.arena,
	}
}

// Append buffers one tuple in the table's delta write store; it becomes
// visible to queries after Merge. Tuple values follow the sorted order of
// the attribute names (storage.Table.ColumnNames).
func (t *Table) Append(tuple []Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st.Delta().Append(tuple)
}

// Pending returns the number of buffered (not yet merged) tuples.
func (t *Table) Pending() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.st.Delta().Pending()
}

// Merge folds the delta store into the read store, swaps each secondary
// index for a new one merged with the delta's entries, and rebuilds the
// derived per-attribute structures (compressed twins, zonemaps, bitmaps
// and their counts, imprints, and the histograms of attributes that have
// neither a secondary nor a bitmap index).
func (t *Table) Merge() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	//fclint:ignore lockhold merge must mutate the table under the write lock; the only blocking callee is the fault-injection delay hook used by tests
	added, err := t.st.MergeDelta()
	if err != nil || added == 0 {
		return err
	}
	for attr, rel := range t.rels {
		col, err := t.st.Column(attr)
		if err != nil {
			return err
		}
		rel.Column = col
		if rel.Index != nil {
			// Readers that took the old tree keep it whole.
			rel.Index = rel.Index.Merge(col)
		}
		if rel.Compressed != nil {
			cc, err := storage.Compress(col)
			if err != nil {
				// New values can exceed the 16-bit dictionary: drop the
				// compressed twin rather than serve stale data.
				rel.Compressed = nil
			} else {
				rel.Compressed = cc
			}
		}
		if rel.Zonemap != nil {
			rel.Zonemap = storage.BuildZonemap(col, rel.Zonemap.ZoneSize())
		}
		if rel.Bitmap != nil {
			bm, err := bitmap.Build(col)
			if err != nil {
				// The merge can widen the domain past bitmap range: drop
				// the bitmap rather than serve stale data.
				rel.Bitmap = nil
			} else {
				rel.Bitmap = bm
			}
		}
		if rel.Imprints != nil {
			imp, err := imprints.Build(col)
			if err != nil {
				rel.Imprints = nil
			} else {
				rel.Imprints = imp
			}
		}
		if rel.Histogram != nil {
			h, err := stats.BuildHistogram(col, rel.Histogram.Buckets())
			if err == nil {
				rel.Histogram = h
			}
		}
	}
	return nil
}
