package fastcolumns

import (
	"context"
	"strings"

	"fastcolumns/internal/model"
	"fastcolumns/internal/optimizer"
	"fastcolumns/internal/scheduler"
	"fastcolumns/internal/storage"
)

// This file wires mid-pass attach into the serve path. Every table scan
// already runs as a pass the engine's manager publishes; a Cooperative
// server offers each late-arriving submission to the in-flight pass on
// its attribute when the model's attach-vs-wait term says attaching at
// the cursor beats waiting for the next batching window.

// tryAttach is the scheduler's Attach hook: price attaching the arriving
// query to the in-flight pass on key against waiting for the next
// window, and admit it mid-pass when attaching wins. Runs on the
// submitting goroutine; a false return falls back to normal batching.
func (s *Server) tryAttach(ctx context.Context, key string, pred Predicate, deliver func(scheduler.Reply)) bool {
	passes := s.engine.passes
	prog, ok := passes.Progress(key)
	if !ok || prog.Blocks == 0 {
		return false
	}
	table, attr, ok := strings.Cut(key, "\x00")
	if !ok {
		return false
	}
	t, err := s.engine.Table(table)
	if err != nil {
		return false
	}
	sel, tupleSize, ok := t.attachEstimate(attr, pred)
	if !ok {
		return false
	}
	st := model.PassState{
		FracDone: float64(prog.Claimed) / float64(prog.Blocks),
		Live:     prog.Live,
		LiveSel:  prog.LiveSel,
		Pending:  s.sched.Pending(key),
		Window:   s.window.Seconds(),
	}
	p := model.Params{
		Workload: model.Workload{Selectivities: []float64{sel}},
		Dataset:  model.Dataset{N: float64(prog.Rows), TupleSize: tupleSize},
		Hardware: s.engine.opt.HW(),
		Design:   s.engine.opt.Design(),
	}
	attach, attachCost, waitCost := model.ShouldAttach(p, st)
	if !attach {
		return false
	}
	savedNs := int64((waitCost - attachCost) * 1e9)
	hint := int(sel*float64(prog.Rows)) + 1
	return passes.Attach(ctx, key, pred, sel, hint, savedNs, s.maxAttach, func(ids []storage.RowID, err error) {
		deliver(scheduler.Reply{RowIDs: ids, Err: err})
	})
}

// attachEstimate returns the selectivity (optimizer.Selectivity: exact
// with an index or bitmap, the histogram's estimate without; a nominal 1%
// when nothing counts or estimates it) and tuple size the attach-vs-wait
// term prices with.
func (t *Table) attachEstimate(attr string, pred Predicate) (sel, tupleSize float64, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rel, found := t.rels[attr]
	if !found {
		return 0, 0, false
	}
	sel = 0.01
	if hasStatistics(rel) {
		sel = optimizer.Selectivity(rel, pred)
	}
	return sel, float64(rel.Column.TupleSize()), true
}
