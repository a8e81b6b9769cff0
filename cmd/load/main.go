// Command load drives the FastColumns serve path with synthetic traffic
// and reports latency/throughput/shedding — the measurement harness for
// the paper's "many concurrent queries" regime (Figure 11 onwards).
//
// Three modes:
//
//   - closed: N workers submit, wait for the reply, think, repeat. The
//     offered load self-limits as the server slows; good for measuring
//     best-case service capacity.
//   - open: queries arrive on a fixed schedule (Poisson or deterministic
//     interarrivals) regardless of how many are still outstanding, each
//     on its own virtual client. Latency is measured from each op's
//     intended arrival time, so coordinated omission cannot hide a
//     stall. This is the mode that exposes queueing collapse.
//   - sweep: probe the closed-loop capacity C, then run an open-loop
//     rung at each fraction of C in the ladder, printing the
//     latency-vs-offered-load curve and the saturation knee.
//
// Examples:
//
//	$ go run ./cmd/load -mode closed -workers 16 -duration 2s
//	$ go run ./cmd/load -mode open -rate 50000 -dist poisson -duration 2s
//	$ go run ./cmd/load -mode sweep -mix mixed -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"fastcolumns"
	"fastcolumns/internal/loadgen"
	"fastcolumns/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("load: ")

	var (
		n      = flag.Int("n", 1_000_000, "table size (rows)")
		domain = flag.Int("domain", 1<<20, "value domain size")
		mode   = flag.String("mode", "sweep", "driver mode: closed, open, or sweep")
		mixSel = flag.String("mix", "point", "query mix: point, mixed, or range:<sel> (e.g. range:0.01)")
		seed   = flag.Int64("seed", 1, "seed for the predicate stream and arrival schedule")

		workers  = flag.Int("workers", 16, "closed-loop worker population")
		think    = flag.Duration("think", 0, "closed-loop per-worker think time")
		duration = flag.Duration("duration", 2*time.Second, "run (or per-rung) duration")

		rate   = flag.Float64("rate", 10_000, "open-loop offered rate (ops/s)")
		dist   = flag.String("dist", "poisson", "open-loop interarrivals: poisson or deterministic")
		ramp   = flag.Duration("ramp", 0, "open-loop rate ramp-up window")
		minOps = flag.Int64("minops", 0, "extend open-loop rungs until at least this many arrivals are intended (0 = duration only)")

		timeout = flag.Duration("timeout", 250*time.Millisecond, "per-query deadline from intended arrival (0 = none)")

		window      = flag.Duration("window", 500*time.Microsecond, "server batching window")
		maxBatch    = flag.Int("maxbatch", 0, "server max batch size (0 = default)")
		maxPending  = flag.Int("maxpending", 256, "server per-attribute pending bound")
		maxInFlight = flag.Int("maxinflight", 2, "server concurrent batch bound")

		ladder      = flag.String("ladder", "0.05,0.12,0.3,0.75,1.8,4.5", "sweep rate ladder as fractions of probed capacity")
		probeWork   = flag.Int("probe-workers", 16, "sweep capacity-probe worker population")
		probeDur    = flag.Duration("probe-duration", 500*time.Millisecond, "sweep capacity-probe duration")
		jsonOut     = flag.Bool("json", false, "emit JSON instead of a table")
		showMetrics = flag.Bool("metrics", false, "dump the engine's load.* instruments after the run")
	)
	flag.Parse()

	mix, err := parseMix(*mixSel)
	if err != nil {
		log.Fatal(err)
	}
	di, err := parseDist(*dist)
	if err != nil {
		log.Fatal(err)
	}

	eng := fastcolumns.New(fastcolumns.Config{})
	defer eng.Close()
	fmt.Fprintf(os.Stderr, "seeding table load(a) with %d rows over domain %d ...\n", *n, *domain)
	seedTable(eng, *n, int32(*domain))
	srv := eng.Serve(fastcolumns.ServeOptions{
		Window:      *window,
		MaxBatch:    *maxBatch,
		MaxPending:  *maxPending,
		MaxInFlight: *maxInFlight,
	})
	defer srv.Close()

	opt := loadgen.Options{
		Table:   "load",
		Attr:    "a",
		Domain:  int32(*domain),
		Mix:     mix,
		Timeout: *timeout,
		Metrics: eng.Observer().Metrics,
		Seed:    *seed,
	}
	ctx := context.Background()

	switch *mode {
	case "closed":
		res := loadgen.RunClosed(ctx, srv, opt, loadgen.ClosedLoop{
			Workers: *workers, Duration: *duration, Think: *think,
		})
		emitResults(*jsonOut, []loadgen.Result{res})
	case "open":
		res := loadgen.RunOpen(ctx, srv, opt, loadgen.OpenLoop{
			Rate: *rate, Duration: *duration, Dist: di, Ramp: *ramp, MinOps: *minOps,
		})
		emitResults(*jsonOut, []loadgen.Result{res})
	case "sweep":
		fracs, err := parseLadder(*ladder)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "probing closed-loop capacity (%d workers, %v) ...\n", *probeWork, *probeDur)
		capacity := loadgen.ProbeCapacity(ctx, srv, opt, *probeWork, *probeDur)
		if capacity <= 0 {
			log.Fatal("capacity probe achieved no replies; is the server healthy?")
		}
		fmt.Fprintf(os.Stderr, "capacity ~%.0f ops/s; sweeping %d rungs ...\n", capacity, len(fracs))
		rates := make([]float64, len(fracs))
		for i, f := range fracs {
			rates[i] = f * capacity
		}
		cfg := loadgen.OpenLoop{Duration: *duration, Dist: di, Ramp: *ramp, MinOps: *minOps}
		results := loadgen.Sweep(ctx, srv, opt, cfg, rates)
		curve := loadgen.BuildCurve(opt, cfg, capacity, results)
		emitCurve(*jsonOut, curve, results)
	default:
		log.Fatalf("unknown -mode %q (want closed, open, or sweep)", *mode)
	}

	if *showMetrics {
		snap := eng.Observe()
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap.Metrics); err != nil {
			log.Fatal(err)
		}
	}
}

func seedTable(eng *fastcolumns.Engine, n int, domain int32) {
	tbl, err := eng.CreateTable("load")
	if err != nil {
		log.Fatal(err)
	}
	must(tbl.AddColumn("a", workload.Uniform(1, n, domain)))
	must(tbl.CreateIndex("a"))
}

func parseMix(s string) (loadgen.Mix, error) {
	switch {
	case s == "point":
		return loadgen.PointMix(), nil
	case s == "mixed":
		return loadgen.MixedMix(), nil
	case strings.HasPrefix(s, "range:"):
		sel, err := strconv.ParseFloat(strings.TrimPrefix(s, "range:"), 64)
		if err != nil || sel <= 0 || sel > 1 {
			return loadgen.Mix{}, fmt.Errorf("bad -mix %q: want range:<sel> with sel in (0,1]", s)
		}
		return loadgen.RangeMix(s, sel), nil
	}
	return loadgen.Mix{}, fmt.Errorf("unknown -mix %q (want point, mixed, or range:<sel>)", s)
}

func parseDist(s string) (loadgen.Dist, error) {
	switch s {
	case "poisson":
		return loadgen.Poisson, nil
	case "deterministic":
		return loadgen.Deterministic, nil
	}
	return 0, fmt.Errorf("unknown -dist %q (want poisson or deterministic)", s)
}

func parseLadder(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("bad -ladder entry %q: want positive fractions of capacity", p)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -ladder")
	}
	return out, nil
}

func emitResults(asJSON bool, results []loadgen.Result) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			log.Fatal(err)
		}
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "mode\tmix\toffered/s\tachieved/s\tshed%\tp50\tp99\tp999\tledger")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.2f\t%v\t%v\t%v\t%s\n",
			r.Mode, r.MixName, r.OfferedRate, r.AchievedRate, 100*r.ShedRate,
			r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
			r.P999.Round(time.Microsecond), ledger(r))
	}
	w.Flush()
}

func emitCurve(asJSON bool, curve loadgen.Curve, results []loadgen.Result) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(curve); err != nil {
			log.Fatal(err)
		}
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "mix %s, %s arrivals, capacity ~%.0f ops/s\n", curve.Mix, curve.Dist, curve.CapacityRate)
	fmt.Fprintln(w, "target/s\toffered/s\tachieved/s\tshed%\tp50\tp99\tp999\tledger\t")
	for i, p := range curve.Points {
		marker := ""
		if i == curve.KneeIndex {
			marker = "<- knee"
		}
		fmt.Fprintf(w, "%.0f\t%.0f\t%.0f\t%.2f\t%v\t%v\t%v\t%s\t%s\n",
			p.TargetRate, p.OfferedRate, p.AchievedRate, 100*p.ShedRate,
			time.Duration(p.P50Ns).Round(time.Microsecond),
			time.Duration(p.P99Ns).Round(time.Microsecond),
			time.Duration(p.P999Ns).Round(time.Microsecond),
			ledger(results[i]), marker)
	}
	w.Flush()
	if curve.KneeIndex < 0 {
		fmt.Println("saturated at the first rung: no below-knee regime observed")
	}
}

func ledger(r loadgen.Result) string {
	if r.Conserved() {
		return "balanced"
	}
	return fmt.Sprintf("IMBALANCED %+v", r.Counts)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
