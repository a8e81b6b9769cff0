package fastcolumns

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastcolumns/internal/faultinject"
	"fastcolumns/internal/workload"
)

// TestConcurrentQueriesAndMerges hammers one table with concurrent
// readers (direct and through the batching server) while a writer
// appends and merges — the read-store/write-store lifecycle under load.
// Run with -race; correctness here is "answers are internally consistent
// snapshots and nothing tears".
func TestConcurrentQueriesAndMerges(t *testing.T) {
	eng := New(Config{})
	defer eng.Close()
	tbl, err := eng.CreateTable("hot")
	if err != nil {
		t.Fatal(err)
	}
	const n = 50000
	const domain = 10000
	data := workload.Uniform(1, n, domain)
	if err := tbl.AddColumn("v", data); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("v"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Analyze("v", 64); err != nil {
		t.Fatal(err)
	}

	srv := eng.Serve(ServeOptions{Window: time.Millisecond})
	defer srv.Close()

	stop := make(chan struct{})
	var failures atomic.Int64
	var queries atomic.Int64
	var wg sync.WaitGroup

	// Direct readers: both paths must agree on every snapshot they see.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := Value((r*911 + i*37) % domain)
				p := Predicate{Lo: lo, Hi: lo + 50}
				a, err := tbl.SelectVia(PathScan, "v", []Predicate{p})
				if err != nil {
					failures.Add(1)
					return
				}
				b, err := tbl.SelectVia(PathIndex, "v", []Predicate{p})
				if err != nil {
					failures.Add(1)
					return
				}
				// Both ran under the same lock epoch? Not necessarily the
				// same snapshot (a merge can land between), so compare
				// weakly: the index view can differ from the scan view by
				// at most the rows appended during the test.
				diff := len(a.RowIDs[0]) - len(b.RowIDs[0])
				if diff < 0 {
					diff = -diff
				}
				if diff > 512 {
					failures.Add(1)
					t.Errorf("paths diverged by %d rows", diff)
					return
				}
				queries.Add(2)
			}
		}(r)
	}

	// Server readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := Value((r*131 + i*17) % domain)
				ch, err := srv.Submit("hot", "v", Predicate{Lo: lo, Hi: lo + 10})
				if err != nil {
					return // server closed during shutdown
				}
				if rep := <-ch; rep.Err != nil {
					failures.Add(1)
					return
				}
				queries.Add(1)
			}
		}(r)
	}

	// Writer: appends then merges.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			for j := 0; j < 16; j++ {
				if err := tbl.Append([]Value{Value((i*16 + j) % domain)}); err != nil {
					failures.Add(1)
					return
				}
			}
			if err := tbl.Merge(); err != nil {
				failures.Add(1)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d failures under concurrent load", failures.Load())
	}
	if queries.Load() < 50 {
		t.Fatalf("only %d queries completed; stress did not stress", queries.Load())
	}
	if tbl.Rows() != n+20*16 {
		t.Fatalf("rows after merges = %d, want %d", tbl.Rows(), n+20*16)
	}
	// Final consistency: both paths agree exactly once writes quiesce.
	p := Predicate{Lo: 0, Hi: 100}
	a, _ := tbl.SelectVia(PathScan, "v", []Predicate{p})
	b, _ := tbl.SelectVia(PathIndex, "v", []Predicate{p})
	if !equalIDs(a.RowIDs[0], b.RowIDs[0]) {
		t.Fatal("paths disagree after quiescence")
	}
}

// chaosEngine builds a small indexed table for the fault-injection suite.
// The engine (and its worker pool) is closed when the test ends; Close is
// idempotent, so tests that shut it down earlier to audit goroutines are
// fine.
func chaosEngine(t *testing.T) (*Engine, *Table) {
	t.Helper()
	eng := New(Config{})
	t.Cleanup(eng.Close)
	tbl, err := eng.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	const n, domain = 20000, 5000
	if err := tbl.AddColumn("a", workload.Uniform(1, n, domain)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddColumn("b", workload.Uniform(2, n, domain)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Analyze("a", 64); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Analyze("b", 64); err != nil {
		t.Fatal(err)
	}
	return eng, tbl
}

// waitGoroutines asserts the goroutine count settles back near base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	const slack = 4
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running, started with %d\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFaultInjectionPanicIsolatedPerBatch is the acceptance scenario: a
// panic injected into one batch's execution yields errors only for that
// batch's queries; sibling attributes keep serving and the process stays
// up. Count=2 poisons both the chosen-path attempt and the scan-fallback
// retry of exactly one batch.
func TestFaultInjectionPanicIsolatedPerBatch(t *testing.T) {
	eng, _ := chaosEngine(t)
	srv := eng.Serve(ServeOptions{Window: time.Hour})
	defer srv.Close()

	deactivate := faultinject.Activate(faultinject.New(1,
		faultinject.Rule{Site: "exec.run", Kind: faultinject.Panic, Count: 2}))
	defer deactivate()

	ch, err := srv.Submit("t", "a", Predicate{Lo: 0, Hi: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush("t", "a")
	if r := <-ch; !errors.Is(r.Err, ErrBatchPanic) {
		t.Fatalf("poisoned batch reply: %v, want ErrBatchPanic", r.Err)
	}

	// Sibling attribute serves normally while the injector is still armed
	// (its fire budget is spent on the poisoned batch).
	ch, err = srv.Submit("t", "b", Predicate{Lo: 0, Hi: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush("t", "b")
	if r := <-ch; r.Err != nil {
		t.Fatalf("sibling attribute failed: %v", r.Err)
	}
	// And the poisoned attribute recovers on the next batch.
	ch, _ = srv.Submit("t", "a", Predicate{Lo: 0, Hi: 10})
	srv.Flush("t", "a")
	if r := <-ch; r.Err != nil {
		t.Fatalf("attribute did not recover after poisoned batch: %v", r.Err)
	}

	st := srv.ServerStats()
	if st.RecoveredPanics != 2 {
		t.Fatalf("RecoveredPanics = %d, want 2 (chosen path + fallback)", st.RecoveredPanics)
	}
	if st.FallbackRetries != 1 || st.FallbackSuccesses != 0 {
		t.Fatalf("fallback retries/successes = %d/%d, want 1/0", st.FallbackRetries, st.FallbackSuccesses)
	}
}

// TestFaultInjectionMaterializeErrorFallsBackToScan injects an error at
// the SWAR scan's materialization boundary (the point where match words
// become rowIDs inside a pool worker). The pass must surface it as a
// batch error — not a lost result or a hang — and the server's one-shot
// fallback, a scan of the base column, must answer cleanly.
func TestFaultInjectionMaterializeErrorFallsBackToScan(t *testing.T) {
	eng, tbl := chaosEngine(t)
	if err := tbl.Compress("a"); err != nil {
		t.Fatal(err)
	}
	srv := eng.Serve(ServeOptions{Window: time.Hour})
	defer srv.Close()

	deactivate := faultinject.Activate(faultinject.New(1,
		faultinject.Rule{Site: "scan.materialize", Kind: faultinject.Error, Count: 1}))
	defer deactivate()

	// A wide predicate so APS picks the (packed) scan over the index.
	p := Predicate{Lo: 0, Hi: 5000}
	ch, err := srv.Submit("t", "a", p)
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush("t", "a")
	r := <-ch
	if r.Err != nil {
		t.Fatalf("fallback did not absorb the materialize fault: %v", r.Err)
	}
	want, _ := tbl.SelectVia(PathScan, "a", []Predicate{p})
	if !equalIDs(r.RowIDs, want.RowIDs[0]) {
		t.Fatal("fallback answer differs from a clean scan")
	}
	st := srv.ServerStats()
	if st.FallbackRetries != 1 || st.FallbackSuccesses != 1 {
		t.Fatalf("fallback retries/successes = %d/%d, want 1/1", st.FallbackRetries, st.FallbackSuccesses)
	}
}

// TestFaultInjectionMaterializePanicIsolated: a persistent panic at the
// same boundary poisons the packed scan for good, but the fallback scans
// the base column — no compressed twin, so it never crosses the site —
// and absorbs it: the submitter gets the rows a naive filter selects.
// Poisoning a site the fallback does cross (exec.scan) then fails both
// attempts: the submitter sees ErrBatchPanic, and the attribute recovers
// once the injector is gone.
func TestFaultInjectionMaterializePanicIsolated(t *testing.T) {
	eng, tbl := chaosEngine(t)
	if err := tbl.Compress("a"); err != nil {
		t.Fatal(err)
	}
	srv := eng.Serve(ServeOptions{Window: time.Hour})
	defer srv.Close()

	deactivate := faultinject.Activate(faultinject.New(1,
		faultinject.Rule{Site: "scan.materialize", Kind: faultinject.Panic, Prob: 1}))

	p := Predicate{Lo: 0, Hi: 5000}
	ch, err := srv.Submit("t", "a", p)
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush("t", "a")
	r := <-ch
	deactivate()
	if r.Err != nil {
		t.Fatalf("fallback did not absorb the persistent materialize panic: %v", r.Err)
	}
	if !equalIDs(r.RowIDs, refRowIDs(workload.Uniform(1, 20000, 5000), p)) {
		t.Fatal("fallback answer differs from a naive filter")
	}
	st := srv.ServerStats()
	if st.RecoveredPanics != 1 {
		t.Fatalf("RecoveredPanics = %d, want 1 (chosen path only)", st.RecoveredPanics)
	}
	if st.FallbackRetries != 1 || st.FallbackSuccesses != 1 {
		t.Fatalf("fallback retries/successes = %d/%d, want 1/1", st.FallbackRetries, st.FallbackSuccesses)
	}

	deactivate = faultinject.Activate(faultinject.New(1,
		faultinject.Rule{Site: "exec.scan", Kind: faultinject.Panic, Prob: 1}))
	ch, _ = srv.Submit("t", "a", p)
	srv.Flush("t", "a")
	if r := <-ch; !errors.Is(r.Err, ErrBatchPanic) {
		t.Fatalf("scan-poisoned batch reply: %v, want ErrBatchPanic", r.Err)
	}
	if st := srv.ServerStats(); st.RecoveredPanics != 3 {
		t.Fatalf("RecoveredPanics = %d, want 3 (one absorbed, then chosen path + fallback)", st.RecoveredPanics)
	}

	deactivate()
	ch, _ = srv.Submit("t", "a", p)
	srv.Flush("t", "a")
	if r := <-ch; r.Err != nil {
		t.Fatalf("attribute did not recover after scan panics: %v", r.Err)
	}
}

// TestFaultInjectionFallbackScanAnswersBatch: an injected error on the
// index path is absorbed by the one-shot scan fallback — the submitter
// sees a clean answer that matches an uninjected scan.
func TestFaultInjectionFallbackScanAnswersBatch(t *testing.T) {
	eng, tbl := chaosEngine(t)
	srv := eng.Serve(ServeOptions{Window: time.Hour})
	defer srv.Close()

	deactivate := faultinject.Activate(faultinject.New(1,
		faultinject.Rule{Site: "exec.index", Kind: faultinject.Error, Count: 1}))
	defer deactivate()

	// A single point lookup on the indexed attribute: APS picks the index,
	// which faults; the fallback scan must answer.
	p := Predicate{Lo: 42, Hi: 42}
	ch, err := srv.Submit("t", "a", p)
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush("t", "a")
	r := <-ch
	if r.Err != nil {
		t.Fatalf("fallback did not absorb the index fault: %v", r.Err)
	}
	want, _ := tbl.SelectVia(PathScan, "a", []Predicate{p})
	if !equalIDs(r.RowIDs, want.RowIDs[0]) {
		t.Fatal("fallback answer differs from a clean scan")
	}
	st := srv.ServerStats()
	if st.FallbackRetries != 1 || st.FallbackSuccesses != 1 {
		t.Fatalf("fallback retries/successes = %d/%d, want 1/1", st.FallbackRetries, st.FallbackSuccesses)
	}
}

// TestFaultInjectionMorselPanicIsolated pushes the panic one layer deeper
// than TestFaultInjectionPanicIsolatedPerBatch: the fault fires inside a
// pool worker's morsel, so it must relay through Dispatch back to the
// scheduler's recovery machinery. With every morsel poisoned, both the
// chosen-path attempt and the scan-fallback retry panic exactly once from
// the scheduler's point of view, whatever the morsel grid looks like.
func TestFaultInjectionMorselPanicIsolated(t *testing.T) {
	eng, _ := chaosEngine(t)
	srv := eng.Serve(ServeOptions{Window: time.Hour})
	defer srv.Close()

	deactivate := faultinject.Activate(faultinject.New(1,
		faultinject.Rule{Site: "runtime.morsel", Kind: faultinject.Panic, Prob: 1}))

	ch, err := srv.Submit("t", "a", Predicate{Lo: 0, Hi: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush("t", "a")
	if r := <-ch; !errors.Is(r.Err, ErrBatchPanic) {
		t.Fatalf("morsel-poisoned batch reply: %v, want ErrBatchPanic", r.Err)
	}
	st := srv.ServerStats()
	if st.RecoveredPanics != 2 {
		t.Fatalf("RecoveredPanics = %d, want 2 (chosen path + fallback)", st.RecoveredPanics)
	}
	if st.FallbackRetries != 1 || st.FallbackSuccesses != 0 {
		t.Fatalf("fallback retries/successes = %d/%d, want 1/0", st.FallbackRetries, st.FallbackSuccesses)
	}

	// The pool survives its workers panicking: once the injector is gone,
	// the same attribute answers normally.
	deactivate()
	ch, _ = srv.Submit("t", "a", Predicate{Lo: 0, Hi: 10})
	srv.Flush("t", "a")
	if r := <-ch; r.Err != nil {
		t.Fatalf("attribute did not recover after morsel panics: %v", r.Err)
	}
}

// TestFaultInjectionMorselErrorSurfaces: an error injected inside every
// morsel fails both execution attempts and reaches the submitter as an
// error reply — not a panic, not a hang, not a lost reply.
func TestFaultInjectionMorselErrorSurfaces(t *testing.T) {
	eng, _ := chaosEngine(t)
	srv := eng.Serve(ServeOptions{Window: time.Hour})
	defer srv.Close()

	deactivate := faultinject.Activate(faultinject.New(1,
		faultinject.Rule{Site: "runtime.morsel", Kind: faultinject.Error, Prob: 1}))

	ch, err := srv.Submit("t", "b", Predicate{Lo: 0, Hi: 100})
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush("t", "b")
	r := <-ch
	if r.Err == nil || !errors.Is(r.Err, faultinject.ErrInjected) {
		t.Fatalf("morsel-error batch reply: %v, want ErrInjected", r.Err)
	}
	if st := srv.ServerStats(); st.FallbackRetries != 1 || st.FallbackSuccesses != 0 {
		t.Fatalf("fallback retries/successes = %d/%d, want 1/0", st.FallbackRetries, st.FallbackSuccesses)
	}

	deactivate()
	ch, _ = srv.Submit("t", "b", Predicate{Lo: 0, Hi: 100})
	srv.Flush("t", "b")
	if r := <-ch; r.Err != nil {
		t.Fatalf("attribute did not recover after morsel errors: %v", r.Err)
	}
}

// TestEngineCloseReleasesPoolWorkers is the shutdown contract: Close
// drains the engine-owned worker pool (no goroutines outlive it), and the
// engine keeps answering afterwards — dispatch degrades to inline
// execution on a closed pool.
func TestEngineCloseReleasesPoolWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, tbl := chaosEngine(t)
	preds := []Predicate{{Lo: 0, Hi: 99}, {Lo: 100, Hi: 199}, {Lo: 4000, Hi: 4999}}
	want, err := tbl.SelectBatch("b", preds) // unindexed: scans through the pool
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	waitGoroutines(t, base)

	got, err := tbl.SelectBatch("b", preds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range preds {
		if !equalIDs(got.RowIDs[i], want.RowIDs[i]) {
			t.Fatalf("post-Close answer differs for pred %d", i)
		}
	}
}

// TestCancelledSubmissionReturnsPromptly is the acceptance scenario for
// cancellation: with execution artificially delayed, a cancelled context
// answers the submitter with context.Canceled long before the batch
// finishes.
func TestCancelledSubmissionReturnsPromptly(t *testing.T) {
	eng, _ := chaosEngine(t)
	srv := eng.Serve(ServeOptions{Window: time.Millisecond})
	defer srv.Close()

	deactivate := faultinject.Activate(faultinject.New(1,
		faultinject.Rule{Site: "exec.run", Kind: faultinject.Delay, Delay: 400 * time.Millisecond}))
	defer deactivate()

	ctx, cancel := context.WithCancel(context.Background())
	ch, err := srv.SubmitContext(ctx, "t", "a", Predicate{Lo: 0, Hi: 100})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the batch go in flight
	start := time.Now()
	cancel()
	select {
	case r := <-ch:
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("reply error %v, want context.Canceled", r.Err)
		}
		if wait := time.Since(start); wait > 150*time.Millisecond {
			t.Fatalf("cancelled reply took %v; not prompt", wait)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled submission never answered")
	}
	if st := srv.ServerStats(); st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", st.Cancelled)
	}
}

// TestOverloadedSubmissionsRejectedWithoutLeaks is the acceptance
// scenario for admission control: submissions beyond the limit return
// ErrOverloaded fast, nothing is enqueued for them, and the server winds
// down without goroutine or channel leaks.
func TestOverloadedSubmissionsRejectedWithoutLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, _ := chaosEngine(t)
	srv := eng.Serve(ServeOptions{Window: time.Hour, MaxPending: 8, MaxInFlight: 2})

	var accepted []<-chan Reply
	var rejected int
	for i := 0; i < 64; i++ {
		ch, err := srv.Submit("t", "a", Predicate{Lo: Value(i), Hi: Value(i + 10)})
		switch {
		case err == nil:
			accepted = append(accepted, ch)
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if rejected != 64-8 {
		t.Fatalf("rejected %d submissions, want %d (MaxPending=8)", rejected, 64-8)
	}
	srv.Flush("t", "a")
	for _, ch := range accepted {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if st := srv.ServerStats(); st.Rejected != int64(rejected) {
		t.Fatalf("Stats.Rejected = %d, want %d", st.Rejected, rejected)
	}
	srv.Close()
	eng.Close()
	waitGoroutines(t, base)
}

// TestServerSurvivesChaos soaks the server in seeded chaos — injected
// errors, panics, and delays across the exec sites — while concurrent
// clients submit, cancel, and flood. Every accepted query must get
// exactly one reply, the server must keep serving after the injector is
// removed, and no goroutines may leak.
func TestServerSurvivesChaos(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, tbl := chaosEngine(t)
	// Compress one attribute so the soak drives the packed SWAR morsel
	// path (and its materialize fault site) alongside the plain scan.
	if err := tbl.Compress("a"); err != nil {
		t.Fatal(err)
	}
	srv := eng.Serve(ServeOptions{
		Window:      500 * time.Microsecond,
		MaxBatch:    32,
		MaxPending:  256,
		MaxInFlight: 8,
	})

	deactivate := faultinject.Activate(faultinject.New(7,
		faultinject.Rule{Site: "exec.run", Kind: faultinject.Panic, Prob: 0.05},
		faultinject.Rule{Site: "exec.run", Kind: faultinject.Error, Prob: 0.10},
		faultinject.Rule{Site: "exec.run", Kind: faultinject.Delay, Prob: 0.20, Delay: 2 * time.Millisecond},
		faultinject.Rule{Site: "exec.scan", Kind: faultinject.Error, Prob: 0.05},
		faultinject.Rule{Site: "exec.index", Kind: faultinject.Error, Prob: 0.10},
		// Morsel-granular faults fire inside the worker pool: errors and
		// panics must relay through Dispatch to the scheduler's recovery
		// machinery, and delays must not wedge the drain.
		faultinject.Rule{Site: "runtime.morsel", Kind: faultinject.Error, Prob: 0.002},
		faultinject.Rule{Site: "runtime.morsel", Kind: faultinject.Panic, Prob: 0.001},
		faultinject.Rule{Site: "runtime.morsel", Kind: faultinject.Delay, Prob: 0.01, Delay: 200 * time.Microsecond},
		// The bitmap-materialization boundary inside the packed SWAR scan:
		// a worker holding a pooled bitmap buffer must fail or die without
		// leaking it or wedging the job.
		faultinject.Rule{Site: "scan.materialize", Kind: faultinject.Error, Prob: 0.002},
		faultinject.Rule{Site: "scan.materialize", Kind: faultinject.Panic, Prob: 0.001},
	))

	attrs := []string{"a", "b"}
	var accepted, replied, rejected, expired, cancelled, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				attr := attrs[(g+i)%len(attrs)]
				lo := Value((g*131 + i*17) % 4000)
				pred := Predicate{Lo: lo, Hi: lo + 25}
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%4 == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+i%3)*time.Millisecond)
				}
				ch, err := srv.SubmitContext(ctx, "t", attr, pred)
				if err != nil {
					if cancel != nil {
						cancel()
					}
					switch {
					case errors.Is(err, ErrOverloaded):
						rejected.Add(1)
						continue
					case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
						// A 1 ms deadline can run out before Submit is
						// reached under CPU contention: expired before
						// admission, so never accepted and owed no reply.
						expired.Add(1)
						continue
					}
					t.Errorf("submit: %v", err)
					return
				}
				accepted.Add(1)
				r := <-ch
				replied.Add(1)
				switch {
				case r.Err == nil:
				case errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded):
					cancelled.Add(1)
				default:
					failed.Add(1)
				}
				// Exactly-once delivery: the buffered channel stays empty.
				select {
				case <-ch:
					t.Error("reply channel received a second reply")
				default:
				}
				if cancel != nil {
					cancel()
				}
			}
		}(g)
	}
	wg.Wait()
	deactivate()

	if accepted.Load() != replied.Load() {
		t.Fatalf("accepted %d queries, %d replies", accepted.Load(), replied.Load())
	}
	// The server is still healthy once the chaos stops.
	for _, attr := range attrs {
		ch, err := srv.Submit("t", attr, Predicate{Lo: 0, Hi: 50})
		if err != nil {
			t.Fatalf("post-chaos submit on %q: %v", attr, err)
		}
		srv.Flush("t", attr)
		if r := <-ch; r.Err != nil {
			t.Fatalf("post-chaos query on %q failed: %v", attr, r.Err)
		}
	}
	st := srv.ServerStats()
	t.Logf("chaos: accepted=%d rejected=%d expired=%d cancelled=%d failed=%d batches=%d panics=%d fallback=%d/%d",
		accepted.Load(), rejected.Load(), expired.Load(), cancelled.Load(), failed.Load(),
		st.Batches, st.RecoveredPanics, st.FallbackSuccesses, st.FallbackRetries)
	if st.RecoveredPanics == 0 {
		t.Error("chaos never injected a recovered panic; suite is not exercising panic isolation")
	}
	if st.FallbackRetries == 0 {
		t.Error("chaos never exercised the scan fallback")
	}
	srv.Close()
	eng.Close()
	waitGoroutines(t, base)
}

// TestChaosReplyConservationAndObservability is the ledger-audit version
// of the chaos soak: every accepted submission must produce exactly one
// reply (none lost, none duplicated), the scheduler's counters must
// reconcile with the client-side ledger, and afterwards Server.Observe()
// must carry the whole story — populated latency histograms, APS decision
// traces, and drift cells — because an observability layer that goes
// blind under faults is worthless precisely when it is needed.
func TestChaosReplyConservationAndObservability(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, tbl := chaosEngine(t)
	if err := tbl.Compress("a"); err != nil {
		t.Fatal(err)
	}
	srv := eng.Serve(ServeOptions{
		Window:      500 * time.Microsecond,
		MaxBatch:    16,
		MaxPending:  128,
		MaxInFlight: 4,
	})

	deactivate := faultinject.Activate(faultinject.New(99,
		faultinject.Rule{Site: "exec.run", Kind: faultinject.Panic, Prob: 0.03},
		faultinject.Rule{Site: "exec.run", Kind: faultinject.Error, Prob: 0.08},
		faultinject.Rule{Site: "exec.index", Kind: faultinject.Error, Prob: 0.10},
		faultinject.Rule{Site: "exec.run", Kind: faultinject.Delay, Prob: 0.15, Delay: time.Millisecond},
		// Ledger conservation must hold when faults fire inside morsels too,
		// including at the packed scan's bitmap-materialization boundary.
		faultinject.Rule{Site: "runtime.morsel", Kind: faultinject.Error, Prob: 0.002},
		faultinject.Rule{Site: "runtime.morsel", Kind: faultinject.Panic, Prob: 0.001},
		faultinject.Rule{Site: "scan.materialize", Kind: faultinject.Error, Prob: 0.002},
	))

	attrs := []string{"a", "b"}
	var accepted, rejected, expired, replies, ctxErrReplies atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				attr := attrs[(g+i)%len(attrs)]
				lo := Value((g*977 + i*13) % 4000)
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%5 == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+i%2)*time.Millisecond)
				}
				ch, err := srv.SubmitContext(ctx, "t", attr, Predicate{Lo: lo, Hi: lo + 40})
				if err != nil {
					if cancel != nil {
						cancel()
					}
					switch {
					case errors.Is(err, ErrOverloaded):
						rejected.Add(1)
						continue
					case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
						// The 1-2 ms deadline can pass before SubmitContext
						// admits the query: it is answered with the
						// context's error, never accepted and owed no reply.
						expired.Add(1)
						continue
					}
					t.Errorf("submit: %v", err)
					return
				}
				accepted.Add(1)
				r := <-ch
				replies.Add(1)
				if errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded) {
					ctxErrReplies.Add(1)
				}
				// Conservation: the buffered channel must never hold a
				// second reply for the same query.
				select {
				case <-ch:
					t.Error("double delivery: reply channel yielded twice")
				default:
				}
				if cancel != nil {
					cancel()
				}
			}
		}(g)
	}
	wg.Wait()
	deactivate()
	srv.Close()

	// Ledger reconciliation: the scheduler accepted what we think it
	// accepted, rejected what it refused, and answered everything. The
	// expired queries are in neither ledger bucket, so the two counter
	// checks below also show the scheduler counted none of them.
	t.Logf("chaos ledger: accepted=%d rejected=%d expired=%d", accepted.Load(), rejected.Load(), expired.Load())
	if accepted.Load() != replies.Load() {
		t.Fatalf("accepted %d queries but saw %d replies", accepted.Load(), replies.Load())
	}
	st := srv.ServerStats()
	if st.Submitted != accepted.Load() {
		t.Fatalf("Stats.Submitted = %d, ledger says %d", st.Submitted, accepted.Load())
	}
	if st.Rejected != rejected.Load() {
		t.Fatalf("Stats.Rejected = %d, ledger says %d", st.Rejected, rejected.Load())
	}
	// Every scheduler-counted cancellation surfaced as a context-error
	// reply on some channel (the converse does not hold: a batch-wide
	// deadline error reaches submitters without touching the counter).
	if st.Cancelled > ctxErrReplies.Load() {
		t.Fatalf("Stats.Cancelled = %d exceeds the %d context-error replies seen", st.Cancelled, ctxErrReplies.Load())
	}

	// The acceptance criterion: after the stress the observability
	// snapshot is populated end to end.
	snap := srv.Observe()
	if len(snap.Decisions) == 0 {
		t.Error("Observe: no APS decision traces recorded")
	}
	if len(snap.Drift.Cells) == 0 {
		t.Error("Observe: no drift cells recorded")
	}
	for _, h := range []string{"scheduler.exec_ns", "scheduler.batch_width", "engine.batch_ns", "optimizer.decide_ns"} {
		hs, ok := snap.Metrics.Histograms[h]
		if !ok || hs.Count == 0 {
			t.Errorf("Observe: histogram %q empty or missing", h)
		}
	}
	if snap.Metrics.Gauges["server.submitted"] != accepted.Load() {
		t.Errorf("Observe: server.submitted gauge = %d, want %d",
			snap.Metrics.Gauges["server.submitted"], accepted.Load())
	}
	if c := snap.Metrics.Counters["exec.scan.batches"] + snap.Metrics.Counters["exec.index.batches"] +
		snap.Metrics.Counters["exec.bitmap.batches"]; c == 0 {
		t.Error("Observe: no executed batches counted on any access path")
	}
	eng.Close()
	waitGoroutines(t, base)
}
