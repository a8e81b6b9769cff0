package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"fastcolumns"
	"fastcolumns/internal/loadgen"
	"fastcolumns/internal/workload"
)

// loadResult is the schema-v5 `load` section: per-mix
// latency-vs-offered-load curves from an open-loop sweep over a rate
// ladder scaled to the host's probed closed-loop capacity. Rates are
// relative to capacity, and the gates compare shapes (knee position,
// shed engagement, below-knee p99 inflation), so stored runs stay
// comparable across machines.
type loadResult struct {
	Rows      int   `json:"rows"`
	Domain    int32 `json:"domain"`
	TimeoutNs int64 `json:"timeout_ns"`
	// RungNs is the minimum rung duration; low-rate rungs run longer
	// until they have intended at least MinOps arrivals, so every
	// rung's tail quantiles rest on a real sample count.
	RungNs int64           `json:"rung_ns"`
	MinOps int64           `json:"min_ops"`
	Ladder []float64       `json:"ladder"`
	Curves []loadgen.Curve `json:"curves"`
}

// loadLadder is the sweep's rate ladder as fractions of the probed
// closed-loop capacity, geometrically spaced across a wide range. The
// width matters: the knee's *fraction* of closed-loop capacity differs
// per mix, because the closed-loop probe forms wide batches that
// amortize per-batch overhead while an open loop near its knee forms
// narrow ones. Point-get mixes knee near 0.1x of the probed ceiling;
// heavy-scan mixes knee near 1x. The ladder spans both with clean
// rungs on each side, so the knee is bracketed for any mix.
var loadLadder = []float64{0.05, 0.12, 0.3, 0.75, 1.8, 4.5}

// measureLoad sweeps the serve path under open-loop traffic for the
// point and mixed query mixes. Every rung's conservation ledger is
// asserted — a bench run with lost or double replies is not a
// measurement worth storing.
func measureLoad(n int) loadResult {
	rows := n / 10
	if rows < 50_000 {
		rows = 50_000
	}
	if rows > 200_000 {
		rows = 200_000
	}
	const domain = int32(1 << 20)
	const rung = 300 * time.Millisecond
	const timeout = 250 * time.Millisecond
	const minOps = 400

	eng := fastcolumns.New(fastcolumns.Config{})
	defer eng.Close()
	tbl, err := eng.CreateTable("load")
	if err != nil {
		log.Fatal(err)
	}
	for _, step := range []func() error{
		func() error { return tbl.AddColumn("a", workload.Uniform(7, rows, domain)) },
		func() error { return tbl.CreateIndex("a") },
	} {
		if err := step(); err != nil {
			log.Fatal(err)
		}
	}
	srv := eng.Serve(fastcolumns.ServeOptions{
		Window:      500 * time.Microsecond,
		MaxPending:  256,
		MaxInFlight: 2,
	})
	defer srv.Close()

	res := loadResult{
		Rows: rows, Domain: domain,
		TimeoutNs: timeout.Nanoseconds(), RungNs: rung.Nanoseconds(),
		MinOps: minOps,
		Ladder: loadLadder,
	}
	ctx := context.Background()
	for _, mix := range []loadgen.Mix{loadgen.PointMix(), loadgen.MixedMix()} {
		opt := loadgen.Options{
			Table: "load", Attr: "a", Domain: domain,
			Mix: mix, Timeout: timeout, Seed: 11,
		}
		capacity := loadgen.ProbeCapacity(ctx, srv, opt, 16, 200*time.Millisecond)
		if capacity <= 0 {
			log.Fatalf("load sweep (%s): capacity probe achieved no replies", mix.Name)
		}
		rates := make([]float64, len(loadLadder))
		for i, f := range loadLadder {
			rates[i] = f * capacity
		}
		cfg := loadgen.OpenLoop{Duration: rung, Dist: loadgen.Poisson, MinOps: minOps}
		results := loadgen.Sweep(ctx, srv, opt, cfg, rates)
		for i, r := range results {
			if !r.Conserved() {
				log.Fatalf("load sweep (%s) rung %d lost replies: %+v", mix.Name, i, r.Counts)
			}
		}
		res.Curves = append(res.Curves, loadgen.BuildCurve(opt, cfg, capacity, results))
	}
	return res
}

// printLoad summarizes the load section on stdout, one line per curve.
func printLoad(res loadResult) {
	for _, c := range res.Curves {
		knee := "none (saturated at first rung)"
		if c.KneeIndex >= 0 {
			p := c.Points[c.KneeIndex]
			knee = fmt.Sprintf("%.0f ops/s (p99 %v)", p.OfferedRate,
				time.Duration(p.P99Ns).Round(time.Microsecond))
		}
		last := c.Points[len(c.Points)-1]
		fmt.Printf("load %-6s capacity ~%.0f ops/s, knee at %s; at %.1fx capacity shed %.0f%%, p99 %v\n",
			c.Mix, c.CapacityRate, knee,
			last.TargetRate/c.CapacityRate, 100*last.ShedRate,
			time.Duration(last.P99Ns).Round(time.Microsecond))
	}
}

// Queueing-collapse guard: once a rung's p99 has climbed to this
// fraction of the per-query deadline, admission control must be
// shedding. Queueing bounded by MaxPending legitimately inflates p99
// well past an idle rung's (the queue is the product, that is what
// batching servers do), so the guard is deadline-relative, not
// idle-rung-relative: latency at the deadline with nothing shed means
// queries are dying of cancellation while the front door stays open —
// the failure mode admission control exists to prevent.
const collapseTimeoutFrac = 0.8

// loadGate enforces the self-contained shape rules on this run's load
// section: every curve must show a below-knee regime AND a saturated
// regime (otherwise the ladder failed to bracket the knee), and no
// rung may show deadline-level latency without shedding engaged.
func loadGate(res loadResult) error {
	collapse := int64(collapseTimeoutFrac * float64(res.TimeoutNs))
	for _, c := range res.Curves {
		if len(c.Points) == 0 {
			return fmt.Errorf("load gate: curve %s has no points", c.Mix)
		}
		if c.KneeIndex < 0 {
			return fmt.Errorf("load gate: curve %s saturated at the first rung — no below-knee regime measured", c.Mix)
		}
		if c.KneeIndex >= len(c.Points)-1 {
			return fmt.Errorf("load gate: curve %s never saturated — the ladder's top rung is below the knee", c.Mix)
		}
		for i, p := range c.Points {
			if collapse > 0 && p.P99Ns > collapse && p.Shed == 0 {
				return fmt.Errorf("load gate: curve %s rung %d p99 %v reached the %v deadline with zero shedding (unbounded queueing)",
					c.Mix, i, time.Duration(p.P99Ns), time.Duration(res.TimeoutNs))
			}
		}
	}
	return nil
}

// loadCompare gates below-knee latency against the committed baseline:
// each curve's worst below-knee p99 may not exceed the baseline's by
// more than 10%. The compared quantity is coarse by design. The rungs
// are placed relative to a capacity probe that itself varies run to
// run (a closed loop over a batching server is sensitive to how widely
// its batches happen to amortize), so the same rung index lands at
// different absolute rates in different runs, and knee-adjacent rungs
// queue deeply on some runs and not others — and at the lowest rungs a
// scan-heavy mix is legitimately bimodal: each query is its own batch
// (nothing to amortize against), so a Poisson burst of lone scans
// queues behind MaxInFlight and the tail jumps an order of magnitude
// on burst luck. The 10% tolerance is therefore backed by a noise
// floor at the collapse fraction of the per-query deadline — the same
// line the self-contained guard draws: below it, run-to-run
// differences are operating-point and burst noise; above it, queries
// are about to start dying of cancellation, which no healthy run
// reaches below the knee. Baselines predating schema v5 are skipped.
func loadCompare(base, cur loadResult) error {
	if len(base.Curves) == 0 {
		return nil // baseline predates the load section (schema <= v4)
	}
	baseByMix := make(map[string]loadgen.Curve, len(base.Curves))
	for _, c := range base.Curves {
		baseByMix[c.Mix] = c
	}
	const tol = 1.10
	floor := int64(collapseTimeoutFrac * float64(cur.TimeoutNs))
	for _, c := range cur.Curves {
		b, ok := baseByMix[c.Mix]
		if !ok {
			continue
		}
		cw, bw := worstBelowKneeP99(c), worstBelowKneeP99(b)
		if bw <= 0 {
			continue // baseline curve had no below-knee regime to compare
		}
		limit := int64(tol * float64(bw))
		if limit < floor {
			limit = floor
		}
		if cw > limit {
			return fmt.Errorf("load gate: curve %s worst below-knee p99 %v regressed beyond 10%% over baseline %v (noise floor %v)",
				c.Mix, time.Duration(cw), time.Duration(bw), time.Duration(floor))
		}
	}
	return nil
}

// worstBelowKneeP99 is the max p99 over the curve's below-knee rungs;
// 0 when the curve has no below-knee regime.
func worstBelowKneeP99(c loadgen.Curve) int64 {
	if c.KneeIndex < 0 || c.KneeIndex >= len(c.Points) {
		return 0
	}
	var worst int64
	for _, p := range c.Points[:c.KneeIndex+1] {
		if p.P99Ns > worst {
			worst = p.P99Ns
		}
	}
	return worst
}
