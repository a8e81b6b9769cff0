package fastcolumns

import (
	"context"
	"time"

	"fastcolumns/internal/adaptive"
	"fastcolumns/internal/model"
)

// AdaptiveResult is the outcome of a Smooth-Scan-style select.
type AdaptiveResult struct {
	RowIDs []RowID
	// Morphed is true when the probe outgrew its budget and restarted as
	// a sequential scan.
	Morphed bool
	// Wasted counts index entries streamed before morphing.
	Wasted  int
	Elapsed time.Duration
}

// SelectAdaptive answers one range query with the adaptive access path
// (Section 6's "delaying optimization decisions" family): it probes the
// secondary index and morphs into a scan if the result outgrows the
// machine's break-even cardinality. Use it when selectivity estimates
// are untrustworthy; SelectBatch with APS is cheaper when they hold.
//
//fclint:owns — adaptive results are handed to the caller with the batch.
func (t *Table) SelectAdaptive(attr string, lo, hi Value) (AdaptiveResult, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rel, err := t.relation(attr)
	if err != nil {
		return AdaptiveResult{}, err
	}
	// One snapshot read keeps hardware and design from the same fit: a
	// refit hot-swap between two separate accessor calls could otherwise
	// hand the budget mismatched halves.
	snap := t.engine.opt.Snapshot()
	budget := adaptive.BudgetFromModel(rel.Column.Len(), float64(rel.Column.TupleSize()),
		snap.HW, snap.Design)
	res, err := adaptive.SelectContext(context.Background(), rel, Predicate{Lo: lo, Hi: hi}, budget, t.execOptions())
	if err != nil {
		return AdaptiveResult{}, err
	}
	return AdaptiveResult{
		RowIDs:  res.RowIDs,
		Morphed: res.Outcome == adaptive.MorphedToScan,
		Wasted:  res.Wasted,
		Elapsed: res.Elapsed,
	}, nil
}

// Robustness quantifies how trustworthy a decision is (the Section 3
// error-propagation analysis).
type Robustness struct {
	// ErrorMargin is the multiplicative selectivity-error factor that
	// would flip the decision; +Inf when unflippable.
	ErrorMargin float64
	// WrongChoicePenalty is the slowdown if the other path had been
	// picked: near 1 at the break-even point (mistakes are cheap there).
	WrongChoicePenalty float64
}

// ExplainRobustness runs access path selection for the batch and reports
// how sensitive the decision is to selectivity estimation error.
func (t *Table) ExplainRobustness(attr string, preds []Predicate) (Decision, Robustness, error) {
	d, err := t.Explain(attr, preds)
	if err != nil {
		return Decision{}, Robustness{}, err
	}
	t.mu.RLock()
	rel, err := t.relation(attr)
	t.mu.RUnlock()
	if err != nil {
		return Decision{}, Robustness{}, err
	}
	snap := t.engine.opt.Snapshot()
	p := model.Params{
		Workload: model.Workload{Selectivities: d.Selectivities},
		Dataset: model.Dataset{
			N:         float64(rel.Column.Len()),
			TupleSize: float64(rel.Column.TupleSize()),
		},
		Hardware: snap.HW,
		Design:   snap.Design,
	}
	return d, Robustness{
		ErrorMargin:        model.ErrorMargin(p),
		WrongChoicePenalty: model.WrongChoicePenalty(p),
	}, nil
}
