// Package optimizer implements the cost-based access path selection
// module of Section 3 (Figure 11): given the batch the scheduler
// assembled, per-query selectivities (counted exactly by the secondary
// or bitmap index when one exists, estimated from the relation's
// histogram otherwise), the data's physical shape from the storage
// engine, and the hardware profile captured at initialization, it
// evaluates the APS ratio and picks the access path. It also implements
// the traditional fixed-selectivity-threshold optimizer the paper
// compares against.
package optimizer

import (
	"math"
	"time"

	"fastcolumns/internal/exec"
	"fastcolumns/internal/model"
	"fastcolumns/internal/obs"
	"fastcolumns/internal/scan"
)

// Optimizer is the APS module: hardware and design are captured once at
// initialization (Section 3); everything else arrives per batch.
type Optimizer struct {
	hw     model.Hardware
	design model.Design

	m *optMetrics
}

// HW returns the hardware profile.
func (o *Optimizer) HW() model.Hardware { return o.hw }

// Design returns the design constants.
func (o *Optimizer) Design() model.Design { return o.design }

// optMetrics holds the optimizer's pre-resolved instruments so the
// per-decision recording is two allocation-free atomic operations.
type optMetrics struct {
	decideNs *obs.Histogram
	chose    [3]*obs.Counter // indexed by model.Path
}

// SetMetrics wires decision observability into the optimizer: every
// Decide records its own latency (the paper stresses decisions stay in
// the microsecond range — this histogram proves it in production) and
// tallies the chosen path. nil detaches.
func (o *Optimizer) SetMetrics(r *obs.Registry) {
	if r == nil {
		o.m = nil
		return
	}
	o.m = &optMetrics{
		decideNs: r.Histogram("optimizer.decide_ns"),
		chose: [3]*obs.Counter{
			model.PathScan:   r.Counter("optimizer.chose.scan"),
			model.PathIndex:  r.Counter("optimizer.chose.index"),
			model.PathBitmap: r.Counter("optimizer.chose.bitmap"),
		},
	}
}

// observe records one finished decision.
func (o *Optimizer) observe(d Decision) {
	if o.m == nil {
		return
	}
	o.m.decideNs.Record(d.Elapsed.Nanoseconds())
	if d.Path >= 0 && int(d.Path) < len(o.m.chose) {
		o.m.chose[d.Path].Add(1)
	}
}

// New returns an optimizer for the given machine profile using the
// paper's fitted design constants.
func New(hw model.Hardware) *Optimizer {
	return NewWithDesign(hw, model.FittedDesign())
}

// NewWithDesign returns an optimizer with explicit design constants —
// typically the output of fitting the model to the running machine
// (Appendix C).
func NewWithDesign(hw model.Hardware, dg model.Design) *Optimizer {
	return &Optimizer{hw: hw, design: dg}
}

// Scan kernel names recorded in decisions: the packed SWAR kernel over
// the compressed twin, and the plain shared scan. They key the drift
// accounting, so a stale packed fit is flagged separately from a stale
// shared-scan fit.
const (
	KernelShared = "shared"
	KernelSWAR   = "swar"
)

// Decision records one access path selection and what informed it.
type Decision struct {
	Path model.Path
	// Ratio is the APS value (ConcIndex/SharedScan); >= 1 selects the scan.
	Ratio float64
	// Selectivities holds the per-query selectivities used: exact counts
	// when the relation has a secondary or bitmap index, histogram
	// estimates otherwise (see Selectivity).
	Selectivities []float64
	// Forced is true when only one path existed (e.g. no secondary index).
	Forced bool
	// ScanKernel names the scan kernel the cost model assumed:
	// KernelSWAR when the relation carries a compressed twin (exec
	// prefers the packed path), KernelShared otherwise.
	ScanKernel string
	// ScanCost and IndexCost are the model's predicted wall times in
	// seconds for the shared scan (skip-aware when the relation supports
	// skipping) and the concurrent index scan; IndexCost is 0 when no
	// index exists. ChosenCost is the predicted time of the chosen path —
	// it can differ from both when a bitmap index wins. The drift
	// accounting in internal/obs compares these against measured
	// runtimes to tell when the Appendix C constants have gone stale.
	ScanCost   float64
	IndexCost  float64
	ChosenCost float64
	// Elapsed is the optimization time itself — the paper stresses this
	// stays in the microsecond range even for sub-second queries.
	Elapsed time.Duration
}

// DriftPath returns the drift-accounting key for the decision: the
// chosen path's name, specialized by scan kernel so the packed fit's
// constants accumulate their own (path, selectivity-band) cells. The
// returned strings are constants — recording stays allocation-free.
func (d Decision) DriftPath() string {
	if d.Path == model.PathScan && d.ScanKernel == KernelSWAR {
		return "scan(swar)"
	}
	return d.Path.String()
}

// MeanSelectivity returns the batch's mean per-query selectivity (0 for
// an empty batch) — the drift accounting's band key.
func (d Decision) MeanSelectivity() float64 {
	if len(d.Selectivities) == 0 {
		return 0
	}
	var t float64
	for _, s := range d.Selectivities {
		t += s
	}
	return t / float64(len(d.Selectivities))
}

// ratioOf is the APS value from the two predicted costs, guarding the
// zero-cost denominator the way model.APS does.
func ratioOf(indexCost, scanCost float64) float64 {
	if model.EqZero(scanCost) {
		return math.Inf(1)
	}
	return indexCost / scanCost
}

// Choose runs access path selection from raw model inputs: the relation
// size, tuple width in bytes, and per-query selectivities.
func (o *Optimizer) Choose(n int, tupleSize float64, sel []float64) Decision {
	start := time.Now()
	p := model.Params{
		Workload: model.Workload{Selectivities: sel},
		Dataset:  model.Dataset{N: float64(n), TupleSize: tupleSize},
		Hardware: o.hw,
		Design:   o.design,
	}
	scanCost := model.SharedScan(p)
	indexCost := model.ConcIndex(p)
	ratio := ratioOf(indexCost, scanCost)
	path, chosen := model.PathScan, scanCost
	if ratio < 1 {
		path, chosen = model.PathIndex, indexCost
	}
	d := Decision{
		Path: path, Ratio: ratio, Selectivities: p.Workload.Selectivities, ScanKernel: KernelShared,
		ScanCost: scanCost, IndexCost: indexCost, ChosenCost: chosen,
	}
	d.Elapsed = time.Since(start)
	o.observe(d)
	return d
}

// scanSide costs the scan access path as the executor will actually run
// it: relations with a compressed twin take the packed SWAR kernel
// (2-byte codes, W-way predicate evaluation — exec's PreferCompressed
// branch), everything else the plain shared scan credited with whatever
// data skipping the relation supports.
func scanSide(rel *exec.Relation, p model.Params, skip float64) (cost float64, kernel string) {
	if rel.Compressed != nil {
		pp := p
		pp.Dataset.TupleSize = float64(rel.Compressed.TupleSize())
		return model.SharedScanPacked(pp), KernelSWAR
	}
	return model.SharedScanWithSkipping(p, skip), KernelShared
}

// Selectivity is the engine's one source of selectivities: the exact
// fraction of the relation the predicate selects, counted by the
// secondary index in two descents or by the bitmap index from its
// per-value counts, else the relation's histogram estimate, and 0 with
// none of them. Section 3 names selectivity the only estimated input to
// APS; wherever an index or bitmap makes the choice a real one, it is not
// estimated at all.
func Selectivity(rel *exec.Relation, p scan.Predicate) float64 {
	n := rel.Column.Len()
	switch {
	case n == 0:
	case rel.Index != nil:
		return float64(rel.Index.RangeCount(p.Lo, p.Hi)) / float64(n)
	case rel.Bitmap != nil:
		return float64(rel.Bitmap.Count(p.Lo, p.Hi)) / float64(n)
	case rel.Histogram != nil:
		return rel.Histogram.EstimateRange(p.Lo, p.Hi)
	}
	return 0
}

// Decide performs the full run-time decision for a batch over a relation:
// selectivities come from Selectivity (exact where an index or bitmap
// exists), N and ts from the column, a zonemap (if present) credits the
// scan with the zones the whole batch can skip (Appendix E), and
// relations without a secondary index force a scan.
func (o *Optimizer) Decide(rel *exec.Relation, preds []scan.Predicate) Decision {
	start := time.Now()
	sel := make([]float64, len(preds))
	for i, p := range preds {
		sel[i] = Selectivity(rel, p)
	}
	p := model.Params{
		Workload: model.Workload{Selectivities: sel},
		Dataset:  model.Dataset{N: float64(rel.Column.Len()), TupleSize: float64(rel.Column.TupleSize())},
		Hardware: o.hw,
		Design:   o.design,
	}
	if rel.Index == nil && rel.Bitmap == nil {
		// Only the scan exists; still predict its cost so the drift
		// accounting covers forced batches too.
		scanCost, kernel := scanSide(rel, p, 0)
		d := Decision{Path: model.PathScan, Ratio: 0, Selectivities: sel,
			Forced: true, ScanKernel: kernel,
			ScanCost: scanCost, ChosenCost: scanCost,
			Elapsed: time.Since(start)}
		o.observe(d)
		return d
	}
	// Credit the scan with whatever data skipping the relation supports:
	// imprints at cache-line granularity, else zonemaps (Appendix E).
	var skip float64
	switch {
	case rel.Imprints != nil:
		// Conservatively use the widest query's checked fraction.
		checked := 0.0
		for _, pr := range preds {
			if f := rel.Imprints.CheckedFraction(pr.Lo, pr.Hi); f > checked {
				checked = f
			}
		}
		skip = 1 - checked
	case rel.Zonemap != nil:
		ranges := make([][2]int32, len(preds))
		for i, pr := range preds {
			ranges[i] = [2]int32{pr.Lo, pr.Hi}
		}
		skip = rel.Zonemap.SkipFraction(ranges)
	}
	var card float64
	if rel.Bitmap != nil {
		card = float64(rel.Bitmap.Cardinality())
	}
	scanCost, kernel := scanSide(rel, p, skip)
	path, chosen := model.ChooseWithScanCost(p, scanCost, rel.Index != nil, card)
	ic := model.ConcIndex(p)
	var indexCost float64
	if rel.Index != nil {
		indexCost = ic
	}
	d := Decision{
		Path:          path,
		Ratio:         ratioOf(ic, scanCost),
		Selectivities: sel,
		ScanKernel:    kernel,
		ScanCost:      scanCost,
		IndexCost:     indexCost,
		ChosenCost:    chosen,
	}
	d.Elapsed = time.Since(start)
	o.observe(d)
	return d
}

// Traditional is the pre-2017 optimizer: a selectivity threshold fixed
// when the system is tuned, applied per query with no concurrency input
// ("once the system is tuned it is a fixed point used for all queries").
type Traditional struct {
	// Threshold is the per-query selectivity above which it scans.
	Threshold float64
}

// NewTraditional tunes the fixed threshold for the machine the
// traditional way: the single-query break-even point.
func NewTraditional(n int, tupleSize float64, hw model.Hardware, dg model.Design) Traditional {
	s, ok := model.Crossover(1, model.Dataset{N: float64(n), TupleSize: tupleSize}, hw, dg)
	if !ok {
		if s == 0 {
			return Traditional{Threshold: 0} // scan always
		}
		return Traditional{Threshold: 1} // index always
	}
	return Traditional{Threshold: s}
}

// Decide applies the fixed threshold to the batch's mean per-query
// selectivity, ignoring concurrency entirely.
func (t Traditional) Decide(sel []float64) model.Path {
	if len(sel) == 0 {
		return model.PathScan
	}
	var mean float64
	for _, s := range sel {
		mean += s
	}
	mean /= float64(len(sel))
	if mean < t.Threshold {
		return model.PathIndex
	}
	return model.PathScan
}

// SinglePath is the degenerate policy modern systems without secondary
// indexes use: always the same access path (Figure 18's "Index Scan" and
// "Share Scan" bars).
type SinglePath struct{ Path model.Path }

// Decide returns the fixed path.
func (s SinglePath) Decide([]float64) model.Path { return s.Path }
