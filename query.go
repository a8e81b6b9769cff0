package fastcolumns

import (
	"context"
	"fmt"
	"time"

	"fastcolumns/internal/dsl"
	"fastcolumns/internal/exec"
	"fastcolumns/internal/ops"
	"fastcolumns/internal/optimizer"
	"fastcolumns/internal/planner"
	"fastcolumns/internal/storage"
)

// AggResult is the outcome of an aggregate query.
type AggResult struct {
	// Kind is "count", "sum", "min", "max", or "avg".
	Kind  string
	Count int64
	Sum   int64
	Min   Value
	Max   Value
	Avg   float64
}

// QueryResult is the outcome of one DSL statement.
type QueryResult struct {
	// Decision is the access path selection behind the driving filter.
	Decision Decision
	// DriverAttr names the conjunct that drove the access path (the most
	// selective one by estimate); the rest ran as residual filters.
	DriverAttr string
	// RowIDs holds the qualifying positions for plain selects (nil for
	// aggregates and EXPLAIN).
	RowIDs []RowID
	// Values holds the projected attribute for plain selects whose
	// projection differs from the driving attribute (tuple
	// reconstruction), in RowIDs order.
	Values []Value
	// Agg holds the aggregate outcome, when the query had one.
	Agg *AggResult
	// Elapsed is end-to-end execution time including optimization.
	Elapsed time.Duration
}

// Query parses and executes one DSL statement, e.g.
//
//	SELECT v FROM t WHERE v BETWEEN 10 AND 99
//	SELECT SUM(price) FROM sales WHERE day >= 700 AND quantity < 24
//	EXPLAIN SELECT COUNT(*) FROM t WHERE v = 42
//
// Conjunctions are planned the classic way: the most selective conjunct
// (by exact count where an index or bitmap exists, else by histogram
// estimate) drives the access path — where APS arbitrates scan vs index
// vs bitmap — and the remaining conjuncts run as residual filters over
// the survivors. Aggregates and cross-attribute projections run as
// downstream operators over the final rowID set.
func (e *Engine) Query(statement string) (QueryResult, error) {
	return e.QueryContext(context.Background(), statement)
}

// QueryContext is Query with a deadline/cancellation context, threaded
// through access path execution (cooperative granularity: checks land
// between execution phases, not inside a running kernel).
//
//fclint:owns — row-listing queries hand the batch's RowIDs to the caller.
func (e *Engine) QueryContext(ctx context.Context, statement string) (QueryResult, error) {
	start := time.Now()
	q, err := dsl.Parse(statement)
	if err != nil {
		return QueryResult{}, err
	}
	tbl, err := e.Table(q.Table)
	if err != nil {
		return QueryResult{}, err
	}

	// Validate attributes up front and build the plan.
	filters := make([]planner.Filter, len(q.Filters))
	for i, f := range q.Filters {
		if _, err := tbl.column(f.Attr); err != nil {
			return QueryResult{}, err
		}
		filters[i] = planner.Filter{Attr: f.Attr, Pred: f.Pred}
	}
	plan, err := planner.Order(filters, tbl.estimator())
	if err != nil {
		return QueryResult{}, err
	}

	if q.Explain {
		d, err := tbl.Explain(plan.Driver.Attr, []Predicate{plan.Driver.Pred})
		if err != nil {
			return QueryResult{}, err
		}
		return QueryResult{
			Decision:   d,
			DriverAttr: plan.Driver.Attr,
			Elapsed:    time.Since(start),
		}, nil
	}

	// COUNT(*) with no residual filters never needs the rowIDs: count
	// inside the chosen access structure.
	if q.Agg == dsl.AggCount && len(plan.Residuals) == 0 {
		counts, d, err := tbl.CountContext(ctx, plan.Driver.Attr, []Predicate{plan.Driver.Pred})
		if err != nil {
			return QueryResult{}, err
		}
		return QueryResult{
			Decision:   d,
			DriverAttr: plan.Driver.Attr,
			Agg:        &AggResult{Kind: "count", Count: int64(counts[0])},
			Elapsed:    time.Since(start),
		}, nil
	}

	res, err := tbl.SelectBatchContext(ctx, plan.Driver.Attr, []Predicate{plan.Driver.Pred})
	if err != nil {
		return QueryResult{}, err
	}
	ids := res.RowIDs[0]
	for _, r := range plan.Residuals {
		col, err := tbl.column(r.Attr)
		if err != nil {
			return QueryResult{}, err
		}
		ids = ops.FilterAt(col, r.Pred.Lo, r.Pred.Hi, ids)
	}

	out := QueryResult{Decision: res.Decision, DriverAttr: plan.Driver.Attr}
	switch q.Agg {
	case dsl.AggNone:
		out.RowIDs = ids
		if q.AggAttr != "" && q.AggAttr != plan.Driver.Attr {
			col, err := tbl.column(q.AggAttr)
			if err != nil {
				return QueryResult{}, err
			}
			out.Values = ops.Fetch(col, ids, nil)
		}
	case dsl.AggCount:
		out.Agg = &AggResult{Kind: "count", Count: int64(len(ids))}
	default:
		col, err := tbl.column(q.AggAttr)
		if err != nil {
			return QueryResult{}, err
		}
		agg := ops.AggregateAt(col, ids)
		r := &AggResult{Count: agg.Count, Sum: agg.Sum, Min: agg.Min, Max: agg.Max}
		switch q.Agg {
		case dsl.AggSum:
			r.Kind = "sum"
		case dsl.AggMin:
			r.Kind = "min"
		case dsl.AggMax:
			r.Kind = "max"
		case dsl.AggAvg:
			r.Kind = "avg"
			avg, err := agg.Avg()
			if err != nil {
				return QueryResult{}, fmt.Errorf("fastcolumns: %s over empty result", r.Kind)
			}
			r.Avg = avg
		}
		if agg.Count == 0 && q.Agg != dsl.AggAvg {
			// Empty min/max have no meaningful value; keep zeroes but a
			// zero Count signals it.
			r.Min, r.Max = 0, 0
		}
		out.Agg = r
	}
	if q.Agg != dsl.AggNone {
		// Aggregation consumed the rowIDs; hand the pooled batch back to
		// the arena instead of leaking it to the garbage collector. Only
		// the AggNone path hands rowIDs (and the release obligation) to
		// the caller.
		res.Release()
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// estimator is the planner's selectivity estimator: the optimizer's
// Selectivity (exact on an attribute with an index or bitmap), and 1
// (never drive) on an attribute with no statistics at all.
func (t *Table) estimator() planner.Estimator {
	return func(f planner.Filter) float64 {
		// Merge swaps the relation's structures under the write lock.
		t.mu.RLock()
		defer t.mu.RUnlock()
		rel, ok := t.rels[f.Attr]
		if !ok || !hasStatistics(rel) {
			return 1
		}
		return optimizer.Selectivity(rel, f.Pred)
	}
}

// hasStatistics reports whether anything counts or estimates the
// relation's selectivities: an index, a bitmap or a histogram.
func hasStatistics(rel *exec.Relation) bool {
	return rel.Index != nil || rel.Bitmap != nil || rel.Histogram != nil
}

// column exposes a raw column view for downstream operators.
func (t *Table) column(attr string) (*storage.Column, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rel, err := t.relation(attr)
	if err != nil {
		return nil, err
	}
	return rel.Column, nil
}
