// Package adaptive implements a Smooth-Scan-style access path (the
// "delaying optimization decisions" family the paper's Section 6
// contrasts with up-front APS): the operator starts probing the
// secondary index and morphs into a sequential scan if the result
// outgrows the estimate that justified probing. It trades a bounded
// amount of wasted probe work for robustness against selectivity
// misestimation — whereas APS commits up front and relies on the
// estimate. The AblationAdaptive benchmark compares the two under good
// and bad estimates.
package adaptive

import (
	"context"
	"errors"
	"time"

	"fastcolumns/internal/exec"
	"fastcolumns/internal/index"
	"fastcolumns/internal/model"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/storage"
)

// Outcome reports how an adaptive select ended.
type Outcome int

const (
	// FinishedAsIndex means the probe completed within budget.
	FinishedAsIndex Outcome = iota
	// MorphedToScan means the result outgrew the budget and the operator
	// restarted as a sequential scan.
	MorphedToScan
)

// String names the outcome.
func (o Outcome) String() string {
	if o == MorphedToScan {
		return "morphed-to-scan"
	}
	return "index"
}

// Result is the outcome of one adaptive select.
type Result struct {
	RowIDs  []storage.RowID
	Outcome Outcome
	// Wasted is the number of index entries streamed before morphing
	// (zero when the probe finished).
	Wasted  int
	Elapsed time.Duration
}

// SelectContext answers one range predicate adaptively. budget is the
// maximum result cardinality the index path may produce before
// morphing; pass BudgetFromModel to derive it from the machine's
// break-even point. opt supplies the pool and arena the restart scan
// runs on; ctx cancels it between scan units.
//
//fclint:owns — a morphed select hands the restart scan's result buffer to the caller.
func SelectContext(ctx context.Context, rel *exec.Relation, p scan.Predicate, budget int, opt exec.Options) (Result, error) {
	if rel.Index == nil {
		return Result{}, errors.New("adaptive: relation has no secondary index")
	}
	if budget < 1 {
		budget = 1
	}
	start := time.Now()
	ids, complete := rel.Index.RangeRowIDsLimit(p.Lo, p.Hi, budget, nil)
	if complete {
		index.SortRowIDs(ids)
		return Result{RowIDs: ids, Outcome: FinishedAsIndex, Elapsed: time.Since(start)}, nil
	}
	// The estimate was wrong: restart as a scan. The partial index result
	// is discarded (the original Smooth Scan morphs in place; a restart
	// keeps the operator simple and its waste is capped by budget).
	wasted := len(ids)
	res, err := exec.RunScan(ctx, rel, []scan.Predicate{p}, opt)
	if err != nil {
		return Result{}, err
	}
	return Result{
		RowIDs:  res.RowIDs[0],
		Outcome: MorphedToScan,
		Wasted:  wasted,
		Elapsed: time.Since(start),
	}, nil
}

// BudgetFromModel derives the morph budget from the cost model: the
// result cardinality at the machine's single-query break-even selectivity
// — beyond that many results, the scan would have been the right call, so
// keeping the probe alive only compounds the mistake.
func BudgetFromModel(n int, tupleSize float64, hw model.Hardware, dg model.Design) int {
	s, ok := model.Crossover(1, model.Dataset{N: float64(n), TupleSize: tupleSize}, hw, dg)
	if !ok {
		if s == 0 {
			return 1 // scan always wins: morph immediately
		}
		return n // index always wins: never morph
	}
	budget := int(s * float64(n))
	if budget < 1 {
		budget = 1
	}
	return budget
}
