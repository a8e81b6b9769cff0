package fastcolumns

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastcolumns/internal/model"
)

// soakTable builds the shared fixture: n tuples cycling through 1000
// distinct values (so every value appears exactly n/1000 times and
// result counts are exact), with a secondary index and a histogram.
func soakTable(t *testing.T, eng *Engine, n int) *Table {
	t.Helper()
	tbl, err := eng.CreateTable("soak")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]Value, n)
	for i := range data {
		data[i] = Value(i % 1000)
	}
	if err := tbl.AddColumn("col", data); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("col"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Analyze("col", 128); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestRefitSoakHotSwapUnderLoad is the drift-loop acceptance soak: an
// engine whose cost model starts from a badly mis-fitted hardware
// profile answers a continuous query stream while the background refit
// controller watches the drift accounting, re-fits the constants from
// the live decision trace, validates the candidate on held-out
// observations, and hot-swaps the optimizer's snapshot. The queries
// never pause, never fail, and never return a wrong count while the
// swap happens under them — run this under -race to prove the snapshot
// discipline (the whole point of the atomic.Pointer design).
func TestRefitSoakHotSwapUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second soak; skipped in -short mode")
	}
	// A profile whose pipelining factor claims scans overlap ~100x better
	// than they do: every scan prediction lands far below what this host
	// measures, giving the fitter a real, recoverable mis-fit to repair
	// (holdout validation then accepts the candidate on merit).
	hw := model.HW1()
	hw.Pipelining *= 0.01
	eng := New(Config{
		Hardware:      hw,
		TraceCap:      192,
		EnableRefit:   true,
		RefitInterval: 15 * time.Millisecond,
		RefitCooldown: 50 * time.Millisecond,
		RefitMinObs:   24,
	})
	defer eng.Close()

	const n = 60_000
	const perValue = n / 1000
	tbl := soakTable(t, eng, n)

	// Deterministically place the host in the stale-drift regime: two
	// selectivity bands whose measured/predicted ratios diverge 8x, the
	// signature of a model that is shape-wrong rather than merely offset.
	// Live traffic keeps feeding the real cells; this primes the verdict
	// so the test does not depend on the CI machine's timing profile.
	drift := eng.Observer().Drift
	for i := 0; i < 4; i++ {
		drift.Record("scan", 1e-5, 1.0, 1.0)
		drift.Record("scan", 0.5, 1.0, 8.0)
	}

	// Three selectivity bands: point gets, ~1%, and 50%.
	workloads := []struct {
		preds []Predicate
		want  []int
	}{
		{[]Predicate{{Lo: 5, Hi: 5}, {Lo: 7, Hi: 7}}, []int{perValue, perValue}},
		{[]Predicate{{Lo: 0, Hi: 9}, {Lo: 100, Hi: 109}}, []int{10 * perValue, 10 * perValue}},
		{[]Predicate{{Lo: 0, Hi: 499}}, []int{500 * perValue}},
	}

	var stop atomic.Bool
	var batches atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				wl := workloads[(w+i)%len(workloads)]
				res, err := tbl.SelectBatch("col", wl.preds)
				if err != nil {
					t.Errorf("worker %d: SelectBatch: %v", w, err)
					return
				}
				for q := range wl.want {
					if got := len(res.RowIDs[q]); got != wl.want[q] {
						t.Errorf("worker %d: query %d returned %d rows, want %d (decision %+v)",
							w, q, got, wl.want[q], res.Decision)
						return
					}
				}
				batches.Add(1)
				// Interleave the other snapshot reader the refit races
				// against: the robustness explainer takes one consistent
				// snapshot per call.
				if i%7 == 0 {
					if _, _, err := tbl.ExplainRobustness("col", wl.preds); err != nil {
						t.Errorf("worker %d: ExplainRobustness: %v", w, err)
						return
					}
				}
			}
		}(w)
	}

	// Wait for the controller to attempt, validate, and swap.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, ok := eng.RefitStatus()
		if !ok {
			t.Fatal("engine reports no refit controller despite EnableRefit")
		}
		if st.Swaps >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	st, _ := eng.RefitStatus()
	if st.Swaps < 1 {
		t.Fatalf("no validated hot-swap within deadline; status %+v after %d batches", st, batches.Load())
	}
	if st.DesignVersion < 2 {
		t.Fatalf("swap reported but snapshot version is %d, want >= 2", st.DesignVersion)
	}
	if st.LastAt.IsZero() || st.Attempts < 1 {
		t.Fatalf("swap reported but attempt bookkeeping is empty: %+v", st)
	}
	// The fit must have moved the pipelining factor off the planted lie;
	// Engine.Hardware reads the live snapshot, not the configured profile.
	if got := eng.Hardware().Pipelining; got == hw.Pipelining {
		t.Fatalf("pipelining factor unchanged at %g after a swap; fit did not touch the live model", got)
	}
	if batches.Load() == 0 {
		t.Fatal("soak executed no batches; the swap was not exercised under load")
	}
	t.Logf("soak: %d batches, %d attempts, %d swaps, %d rejected, fp %g -> %g",
		batches.Load(), st.Attempts, st.Swaps, st.Rejected, hw.Pipelining, eng.Hardware().Pipelining)
}
