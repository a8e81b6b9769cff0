package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"time"

	"fastcolumns"
	"fastcolumns/internal/scheduler"
)

// composed is the serve path put together again from the layers' own
// entry points — scheduler.New over Table.SelectBatchContext — so that the
// harness can stamp the boundary between them. It leaves out what serve.go
// adds (table lookup, predicate dedupe, stats, panic recovery and the scan
// fallback); server.overhead_p50_us is the price of that difference.
type composed struct {
	sched  *scheduler.Scheduler
	tbl    *fastcolumns.Table
	attr   string
	traced bool

	mu      sync.Mutex
	batches []batchRecord
}

// batchRecord is one executed batch of a traced run.
type batchRecord struct {
	start, end time.Time
	exec       time.Duration // BatchResult.Elapsed: the access path's own time
	cost       float64       // Decision.ChosenCost: the model's prediction, seconds
	rows       int64
	preds      []fastcolumns.Predicate
}

func newComposed(tbl *fastcolumns.Table, attr string, traced bool) *composed {
	c := &composed{tbl: tbl, attr: attr, traced: traced}
	c.sched = scheduler.New(c.exec, scheduler.Options{})
	return c
}

func (c *composed) submit(ctx context.Context, p fastcolumns.Predicate) (<-chan fastcolumns.Reply, error) {
	return c.sched.SubmitContext(ctx, c.attr, p)
}

// exec is the scheduler's executor, as Server.execBatch is the shipped one.
//
//fclint:owns — like Server.execBatch, it answers submitters with the batch's pooled rowID slices.
func (c *composed) exec(ctx context.Context, _ string, preds []fastcolumns.Predicate) ([][]fastcolumns.RowID, error) {
	if !c.traced {
		res, err := c.tbl.SelectBatchContext(ctx, c.attr, preds)
		return res.RowIDs, err
	}
	rec := batchRecord{start: time.Now(), preds: preds}
	res, err := c.tbl.SelectBatchContext(ctx, c.attr, preds)
	rec.end = time.Now()
	rec.exec = res.Elapsed
	rec.cost = res.Decision.ChosenCost
	for _, ids := range res.RowIDs {
		rec.rows += int64(len(ids))
	}
	c.mu.Lock()
	c.batches = append(c.batches, rec)
	c.mu.Unlock()
	return res.RowIDs, err
}

// span is one traced interval, as -trace-out writes it. A query's root
// span ("submit") and its three scheduler spans share the query's trace
// number; the root names, in Batch, the id of the "batch" span that ran it.
// Batch spans are shared by every query of the batch, so they (and their
// "exec" child) carry trace -1.
type span struct {
	Trace   int    `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Batch   int    `json:"batch,omitempty"`
}

// layerTimes is a traced run split by layer, in nanoseconds per query.
type layerTimes struct {
	admit, queue, reply []int64
	// root and unattributed are summed over all queries: end-to-end
	// latency, and the part of it no child span covers (generator
	// lateness, and the whole of a query whose batch was not found).
	root, unattributed int64
	spans              []span
}

// splitLayers matches every answered query of a traced run to the batch
// that ran it and cuts its latency at the layer boundaries:
//
//	submit (root: due → reply received)
//	├ scheduler.admit       SubmitContext call
//	├ scheduler.queue_wait  SubmitContext return → batch start
//	├ batch                 execFn entry → return (shared by the batch)
//	└ scheduler.reply       batch end → reply received
//
// A query is matched by predicate and by time: its batch started after it
// was sent and ended before its reply arrived.
func splitLayers(log *runLog, batches []batchRecord, keepSpans bool) layerTimes {
	var lt layerTimes
	start := log.start
	byPred := make(map[fastcolumns.Predicate][]int, len(batches))
	for i, b := range batches {
		for _, p := range b.preds {
			byPred[p] = append(byPred[p], i)
		}
	}
	nextID := len(batches) + 1 // span ids 1..len(batches) are the batch spans
	for q, s := range log.samples {
		if s.status != statusOK {
			continue
		}
		root := s.recv - s.due
		lt.root += root
		var bStart, bEnd int64
		batch := -1
		for _, i := range byPred[s.pred] {
			bStart, bEnd = int64(batches[i].start.Sub(start)), int64(batches[i].end.Sub(start))
			if bStart >= s.sent && bEnd <= s.recv {
				batch = i
				break
			}
		}
		if batch < 0 {
			lt.unattributed += root
			continue
		}
		lt.admit = append(lt.admit, s.admitted-s.sent)
		lt.queue = append(lt.queue, bStart-s.admitted)
		lt.reply = append(lt.reply, s.recv-bEnd)
		lt.unattributed += s.sent - s.due
		if keepSpans {
			rootID := nextID
			nextID += 4
			lt.spans = append(lt.spans,
				span{q, rootID, 0, "submit", s.due, s.recv, batch + 1},
				span{q, rootID + 1, rootID, "scheduler.admit", s.sent, s.admitted, 0},
				span{q, rootID + 2, rootID, "scheduler.queue_wait", s.admitted, bStart, 0},
				span{q, rootID + 3, rootID, "scheduler.reply", bEnd, s.recv, 0})
		}
	}
	if keepSpans {
		for i, b := range batches {
			lt.spans = append(lt.spans,
				span{-1, i + 1, 0, "batch", int64(b.start.Sub(start)), int64(b.end.Sub(start)), 0},
				span{-1, nextID, i + 1, "exec", int64(b.end.Sub(start) - b.exec), int64(b.end.Sub(start)), 0})
			nextID++
		}
	}
	return lt
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
