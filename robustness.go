package fastcolumns

import "fastcolumns/internal/model"

// Robustness quantifies how trustworthy a decision would be if its
// selectivities were estimates (the Section 3 error-propagation
// analysis): how far the batch sits from the flip, and what picking the
// other path would cost.
type Robustness struct {
	// ErrorMargin is the multiplicative selectivity-error factor that
	// would flip the decision; +Inf when unflippable.
	ErrorMargin float64
	// WrongChoicePenalty is the slowdown if the other path had been
	// picked: near 1 at the break-even point (mistakes are cheap there).
	WrongChoicePenalty float64
}

// ExplainRobustness runs access path selection for the batch and reports
// how sensitive the decision is to selectivity error. With an index or
// a bitmap the selectivities are exact counts, so the margin says how
// far the batch sits from the flip rather than how wrong an estimate may
// be; without either the scan is forced, and the margin is the one an
// index would face.
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
	p := model.Params{
		Workload: model.Workload{Selectivities: d.Selectivities},
		Dataset: model.Dataset{
			N:         float64(rel.Column.Len()),
			TupleSize: float64(rel.Column.TupleSize()),
		},
		Hardware: t.engine.opt.HW(),
		Design:   t.engine.opt.Design(),
	}
	return d, Robustness{
		ErrorMargin:        model.ErrorMargin(p),
		WrongChoicePenalty: model.WrongChoicePenalty(p),
	}, nil
}
