package fastcolumns

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastcolumns/internal/obs"
	"fastcolumns/internal/scheduler"
	"fastcolumns/internal/storage"
)

// Reply is the result delivered for one submitted query.
type Reply = scheduler.Reply

// ErrOverloaded is returned by Submit when admission control sheds the
// query instead of queueing it unboundedly; nothing was enqueued and the
// caller should back off.
var ErrOverloaded = scheduler.ErrOverloaded

// ErrBatchPanic wraps a panic recovered during batch execution; it
// reaches submitters as their Reply error when even the scan fallback
// could not answer the batch.
var ErrBatchPanic = scheduler.ErrBatchPanic

// Server is the asynchronous query front door of Section 3 (Figure 11):
// submitted queries are continuously collected, grouped per (table,
// attribute), and each group is answered as one batch through access path
// selection — so concurrency is created by the workload and exploited by
// the optimizer, without callers coordinating.
//
// The front door is hardened for production traffic: queries carry
// contexts (deadlines and cancellation propagate into execution, and
// cancelled queries shrink their batch before the APS model sees it),
// admission is bounded (ErrOverloaded instead of unbounded queues), a
// panic in one batch is isolated to that batch's queries, and a batch
// that fails on the chosen access path is retried once through the safe
// fallback path — a full scan, the only path that needs no auxiliary
// structure to be correct.
type Server struct {
	engine *Engine
	sched  *scheduler.Scheduler
	// window mirrors the scheduler's batching window, and maxAttach the
	// per-pass adoption cap, for the Attach hook (ServeOptions.Cooperative).
	window    time.Duration
	maxAttach int

	recovered  atomic.Int64
	fallbacks  atomic.Int64
	fallbackOK atomic.Int64

	mu    sync.Mutex
	stats map[string]*AttrStats
}

// AttrStats is the server's running picture of one (table, attribute)
// stream — the "continuous data collection" of Section 3 made visible.
type AttrStats struct {
	// Batches and Queries count what executed.
	Batches int64
	Queries int64
	// MaxBatch is the widest batch seen (the concurrency the APS model
	// actually exploited).
	MaxBatch int
	// PathCounts tallies batches per chosen access path, keyed by
	// Path.String().
	PathCounts map[string]int64
}

// ServerStats aggregates the server's resilience counters — the health
// picture an operator watches under heavy traffic.
type ServerStats struct {
	// Submitted counts accepted queries; Rejected counts submissions shed
	// by admission control with ErrOverloaded.
	Submitted int64
	Rejected  int64
	// Cancelled counts queries answered with their context's error.
	Cancelled int64
	// Batches counts executed batches across all attributes.
	Batches int64
	// RecoveredPanics counts panics converted into per-query errors
	// (in the server's execution layer or the scheduler's last-resort
	// recover).
	RecoveredPanics int64
	// FallbackRetries counts batches retried on the scan fallback after
	// failing their chosen access path; FallbackSuccesses counts the
	// retries that answered the batch.
	FallbackRetries   int64
	FallbackSuccesses int64
	// FailedBatches counts batches that reported an error to their
	// queries after all retries.
	FailedBatches int64
	// Attached counts queries adopted mid-pass by the cooperative scan
	// manager instead of waiting for a batching window (always zero
	// unless ServeOptions.Cooperative). Attached queries are included in
	// Submitted.
	Attached int64
}

// Stats returns a snapshot for table.attr (zero value if never queried).
func (s *Server) Stats(table, attr string) AttrStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stats[passKey(table, attr)]
	if !ok {
		return AttrStats{PathCounts: map[string]int64{}}
	}
	cp := *st
	cp.PathCounts = make(map[string]int64, len(st.PathCounts))
	for k, v := range st.PathCounts {
		cp.PathCounts[k] = v
	}
	return cp
}

// ServerStats snapshots the server-wide resilience counters.
func (s *Server) ServerStats() ServerStats {
	st := s.sched.Stats()
	return ServerStats{
		Submitted:         st.Submitted,
		Rejected:          st.Rejected,
		Cancelled:         st.Cancelled,
		Batches:           st.Batches,
		RecoveredPanics:   st.Panics + s.recovered.Load(),
		FallbackRetries:   s.fallbacks.Load(),
		FallbackSuccesses: s.fallbackOK.Load(),
		FailedBatches:     st.Errored,
		Attached:          st.Attached,
	}
}

// record folds one executed batch into the stats.
func (s *Server) record(key string, q int, path Path) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stats[key]
	if !ok {
		st = &AttrStats{PathCounts: make(map[string]int64)}
		s.stats[key] = st
	}
	st.Batches++
	st.Queries += int64(q)
	if q > st.MaxBatch {
		st.MaxBatch = q
	}
	st.PathCounts[path.String()]++
}

// ServeOptions tunes the batching and admission behaviour.
type ServeOptions struct {
	// Window is how long the first query of a batch waits for company
	// (default 1ms).
	Window time.Duration
	// MaxBatch flushes early at this batch size (default 512; beyond that
	// result-writing thrash erodes sharing — Lesson 5).
	MaxBatch int
	// MaxPending bounds each (table, attribute)'s pending queue; beyond
	// it Submit fails fast with ErrOverloaded (default 4096).
	MaxPending int
	// MaxInFlight bounds concurrently executing batches server-wide;
	// while saturated Submit fails fast with ErrOverloaded (default 64).
	MaxInFlight int
	// Cooperative lets a query arriving while a scan pass over its column
	// is in flight attach at the pass cursor (its missed prefix served by
	// a wrap-around continuation) instead of waiting out the batching
	// window, whenever the model's attach-vs-wait term prices attaching
	// cheaper. Off by default.
	Cooperative bool
	// CoopMaxAttach caps mid-pass attachers per cooperative pass
	// (<= 0: coop.DefaultMaxAttach). Each attacher extends the pass by
	// its wrap-around continuation, so the cap bounds how long a pass
	// under a continuous arrival stream can stay open; arrivals beyond
	// it fall back to next-window batching.
	CoopMaxAttach int
}

// Serve starts a server over the engine's tables.
func (e *Engine) Serve(opt ServeOptions) *Server {
	s := &Server{engine: e, stats: make(map[string]*AttrStats), maxAttach: opt.CoopMaxAttach}
	s.window = opt.Window
	if s.window <= 0 {
		s.window = time.Millisecond // mirror the scheduler's default for the wait-cost term
	}
	schedOpt := scheduler.Options{
		Window:      opt.Window,
		MaxBatch:    opt.MaxBatch,
		MaxPending:  opt.MaxPending,
		MaxInFlight: opt.MaxInFlight,
		Metrics:     e.observer.Metrics,
	}
	if opt.Cooperative {
		schedOpt.Attach = s.tryAttach
	}
	s.sched = scheduler.New(s.execBatch, schedOpt)
	return s
}

// Observe snapshots the server's full observability state: every metric
// the engine, optimizer, executor, and scheduler recorded (with
// histogram quantiles), the most recent APS decision traces, and the
// model-drift report. The server's own resilience counters are mirrored
// into gauges first, so one snapshot carries the whole health picture.
func (s *Server) Observe() obs.Snapshot {
	st := s.ServerStats()
	m := s.engine.observer.Metrics
	m.Gauge("server.submitted").Set(st.Submitted)
	m.Gauge("server.rejected").Set(st.Rejected)
	m.Gauge("server.cancelled").Set(st.Cancelled)
	m.Gauge("server.batches").Set(st.Batches)
	m.Gauge("server.recovered_panics").Set(st.RecoveredPanics)
	m.Gauge("server.fallback_retries").Set(st.FallbackRetries)
	m.Gauge("server.fallback_successes").Set(st.FallbackSuccesses)
	m.Gauge("server.failed_batches").Set(st.FailedBatches)
	m.Gauge("server.attached").Set(st.Attached)
	return s.engine.observer.Snapshot()
}

// Submit enqueues one select query on table.attr; the returned channel
// delivers its result once the batch it lands in executes.
func (s *Server) Submit(table, attr string, pred Predicate) (<-chan Reply, error) {
	return s.SubmitContext(context.Background(), table, attr, pred)
}

// SubmitContext is Submit with a per-query deadline/cancellation context.
// A query whose context dies before its batch executes is answered
// promptly with the context's error and dropped from the batch; one whose
// context dies mid-execution is answered promptly while the batch
// finishes for its other members.
func (s *Server) SubmitContext(ctx context.Context, table, attr string, pred Predicate) (<-chan Reply, error) {
	if _, err := s.engine.Table(table); err != nil {
		return nil, err
	}
	return s.sched.SubmitContext(ctx, passKey(table, attr), pred)
}

// Flush forces immediate execution of whatever is pending on table.attr.
func (s *Server) Flush(table, attr string) {
	s.sched.Flush(passKey(table, attr))
}

// Pending reports the queries currently waiting on table.attr — the
// outstanding-query statistic of Section 3.
func (s *Server) Pending(table, attr string) int {
	return s.sched.Pending(passKey(table, attr))
}

// Close drains every pending batch and stops the server.
func (s *Server) Close() { s.sched.Close() }

// execBatch is the scheduler's executor: resolve the table, run the batch
// through APS; on failure of the chosen access path (error or panic),
// retry once through the safe fallback — a full scan.
//
//fclint:owns — the server answers submitters with the batch's pooled rowID slices.
func (s *Server) execBatch(ctx context.Context, key string, preds []Predicate) ([][]storage.RowID, error) {
	table, attr, ok := strings.Cut(key, "\x00")
	if !ok {
		return nil, fmt.Errorf("fastcolumns: malformed batch key %q", key)
	}
	t, err := s.engine.Table(table)
	if err != nil {
		return nil, err
	}
	// Identical predicates in one batch share a single execution: the
	// result slices are read-only, so duplicates alias the first copy.
	// This is result sharing on top of scan sharing — common when many
	// clients ask the same dashboard question at once.
	unique := make([]Predicate, 0, len(preds))
	firstOf := make(map[Predicate]int, len(preds))
	slot := make([]int, len(preds))
	for i, p := range preds {
		if j, ok := firstOf[p]; ok {
			slot[i] = j
			continue
		}
		firstOf[p] = len(unique)
		slot[i] = len(unique)
		unique = append(unique, p)
	}
	res, err := s.selectRecovered(func() (BatchResult, error) {
		return t.SelectBatchContext(ctx, attr, unique)
	})
	if err != nil && retryable(ctx, err) {
		// The chosen path failed on a real fault; the scan of the base
		// column needs no auxiliary structure, so it is the safe place to
		// retry once. (A scan pass that panicked has already
		// error-delivered the queries it adopted.)
		s.fallbacks.Add(1)
		first := err
		res, err = s.selectRecovered(func() (BatchResult, error) {
			return t.selectVia(ctx, PathScan, attr, unique, true)
		})
		if err != nil {
			return nil, fmt.Errorf("fastcolumns: batch failed on chosen path (%v) and on scan fallback: %w", first, err)
		}
		s.fallbackOK.Add(1)
	}
	if err != nil {
		return nil, err
	}
	s.record(key, len(preds), res.Decision.Path)
	if len(unique) == len(preds) {
		return res.RowIDs, nil
	}
	out := make([][]storage.RowID, len(preds))
	for i := range preds {
		out[i] = res.RowIDs[slot[i]]
	}
	return out, nil
}

// selectRecovered runs one batch attempt with panic isolation: a panic in
// execution (a poisoned kernel, a corrupt auxiliary structure) becomes an
// error for this batch alone instead of taking down the process.
func (s *Server) selectRecovered(attempt func() (BatchResult, error)) (res BatchResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.recovered.Add(1)
			err = fmt.Errorf("%w: %v", ErrBatchPanic, r)
		}
	}()
	return attempt()
}

// retryable reports whether a batch failure is worth one fallback-scan
// retry: real execution faults are; context death and unknown tables or
// attributes are not.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}
