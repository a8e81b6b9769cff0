// Monitoring: a server living through workload phases — an OLTP-ish
// burst of point lookups, a mixed phase, and an analytical burst of wide
// ranges — followed by two hostile phases: an overload flood that trips
// admission control and a wave of deadline-carrying clients that give up
// mid-flight. The engine re-decides the access path per batch from what
// the scheduler actually collected, so the chosen path follows the
// workload without any manual switch (Section 3's integration story), and
// the resilience counters show the front door shedding and cancelling
// instead of falling over.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fastcolumns"
)

const (
	n      = 2_000_000
	domain = 1 << 21
)

func main() {
	log.SetFlags(0)
	eng := fastcolumns.New(fastcolumns.Config{})
	defer eng.Close()
	tbl, err := eng.CreateTable("metrics")
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]fastcolumns.Value, n)
	for i := range data {
		data[i] = rng.Int31n(domain)
	}
	if err := tbl.AddColumn("v", data); err != nil {
		log.Fatal(err)
	}
	if err := tbl.CreateIndex("v"); err != nil {
		log.Fatal(err)
	}

	type phase struct {
		name    string
		clients int
		// selectivity per query; 0 = point lookups
		sel float64
		// cancelAfter > 0 arms a deadline on every client's context.
		cancelAfter time.Duration
	}
	phases := []phase{
		{name: "lookup burst (64 clients, point gets)", clients: 64},
		{name: "mixed load (16 clients, 0.2% ranges)", clients: 16, sel: 0.002},
		{name: "analytics burst (8 clients, 10% ranges)", clients: 8, sel: 0.10},
		{name: "overload flood (1024 clients, 0.05% ranges)", clients: 1024, sel: 0.0005},
		{name: "impatient clients (64, 100µs deadlines)", clients: 64, sel: 0.05, cancelAfter: 100 * time.Microsecond},
	}

	// Deliberately tight admission bounds so the flood phase visibly sheds
	// load instead of queueing it.
	srv := eng.Serve(fastcolumns.ServeOptions{
		Window:      3 * time.Millisecond,
		MaxBatch:    128,
		MaxPending:  256,
		MaxInFlight: 4,
	})
	defer srv.Close()

	// Serve the observability endpoint live while the phases run: GET
	// /metrics for the full JSON snapshot (metrics + drift report) and
	// /debug/decisions?n=K for the most recent APS decision traces.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	obsURL := "http://" + ln.Addr().String()
	go func() {
		if err := http.Serve(ln, eng.Observer().Handler()); err != nil && !errors.Is(err, net.ErrClosed) {
			log.Print(err)
		}
	}()
	defer func() { _ = ln.Close() }()
	fmt.Printf("observability endpoint live at %s/metrics and %s/debug/decisions\n\n", obsURL, obsURL)

	for _, ph := range phases {
		var wg sync.WaitGroup
		var mu sync.Mutex
		var rows int
		var shed, gaveUp atomic.Int64
		start := time.Now()
		for c := 0; c < ph.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var p fastcolumns.Predicate
				if ph.sel == 0 {
					v := int32((c * 104729) % domain)
					p = fastcolumns.Predicate{Lo: v, Hi: v}
				} else {
					w := int32(ph.sel * domain)
					lo := int32((c * 7919) % (domain - int(w)))
					p = fastcolumns.Predicate{Lo: lo, Hi: lo + w}
				}
				ctx := context.Background()
				if ph.cancelAfter > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, ph.cancelAfter)
					defer cancel()
				}
				ch, err := srv.SubmitContext(ctx, "metrics", "v", p)
				if err != nil {
					if errors.Is(err, fastcolumns.ErrOverloaded) {
						shed.Add(1)
						return
					}
					log.Print(err)
					return
				}
				r := <-ch
				if r.Err != nil {
					if errors.Is(r.Err, context.DeadlineExceeded) || errors.Is(r.Err, context.Canceled) {
						gaveUp.Add(1)
						return
					}
					log.Print(r.Err)
					return
				}
				mu.Lock()
				rows += len(r.RowIDs)
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)

		// Ask the optimizer what it would decide for this phase's shape —
		// the same computation the server just ran per batch.
		preds := make([]fastcolumns.Predicate, ph.clients)
		for i := range preds {
			if ph.sel == 0 {
				preds[i] = fastcolumns.Predicate{Lo: 1, Hi: 1}
			} else {
				w := int32(ph.sel * domain)
				preds[i] = fastcolumns.Predicate{Lo: 0, Hi: w}
			}
		}
		d, err := tbl.Explain("v", preds)
		if err != nil {
			log.Fatal(err)
		}
		extra := ""
		if s, g := shed.Load(), gaveUp.Load(); s > 0 || g > 0 {
			extra = fmt.Sprintf("  (shed %d, gave up %d)", s, g)
		}
		fmt.Printf("%-44s -> path %-5v (APS %.3f)  %8d rows in %v%s\n",
			ph.name, d.Path, d.Ratio, rows, elapsed.Round(time.Microsecond), extra)
	}

	// The operator's health picture: what the front door absorbed.
	st := srv.ServerStats()
	fmt.Printf("\nserver resilience counters:\n")
	fmt.Printf("  submitted          %6d\n", st.Submitted)
	fmt.Printf("  rejected overload  %6d\n", st.Rejected)
	fmt.Printf("  cancelled          %6d\n", st.Cancelled)
	fmt.Printf("  batches executed   %6d\n", st.Batches)
	fmt.Printf("  recovered panics   %6d\n", st.RecoveredPanics)
	fmt.Printf("  fallback retries   %6d (%d succeeded)\n", st.FallbackRetries, st.FallbackSuccesses)
	fmt.Printf("  failed batches     %6d\n", st.FailedBatches)

	// The same picture over the wire: what a dashboard scraping /metrics
	// would see (here just proving the endpoint serves real data).
	resp, err := http.Get(obsURL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGET /metrics -> %s, %d bytes of JSON\n", resp.Status, len(body))

	// And the in-process snapshot an embedded operator would read.
	snap := srv.Observe()
	fmt.Printf("\nobservability snapshot:\n")
	if h, ok := snap.Metrics.Histograms["scheduler.batch_width"]; ok {
		fmt.Printf("  batch width        p50 %d  p95 %d  (the q the APS model saw)\n",
			int64(h.P50), int64(h.P95))
	}
	if h, ok := snap.Metrics.Histograms["engine.batch_ns"]; ok {
		fmt.Printf("  batch latency      p50 %v  p99 %v over %d batches\n",
			time.Duration(h.P50).Round(time.Microsecond),
			time.Duration(h.P99).Round(time.Microsecond), h.Count)
	}
	fmt.Printf("  decision traces    %d retained\n", len(snap.Decisions))
	fmt.Printf("  drift: %d cells, global calibration %.2fx, max drift %.3f (threshold %.3f)\n",
		len(snap.Drift.Cells), snap.Drift.GlobalRatio, snap.Drift.MaxDrift, snap.Drift.Threshold)

	// Drift's two verdicts: shape (do the cells disagree with each
	// other?) and scale (does the host-wide factor disagree with the
	// model?). A workload that only ever runs one path populates one
	// cell, so only the scale verdict can see its miscalibration.
	fmt.Printf("  shape stale=%v   scale stale=%v (scale drift %.3f)\n",
		snap.Drift.Stale, snap.Drift.ScaleStale, snap.Drift.ScaleDrift)
}
