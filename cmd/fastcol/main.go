// Command fastcol is an interactive shell over the FastColumns engine:
// it loads a demo dataset (or TPC-H lineitem with -tpch), then reads DSL
// statements from stdin and prints results together with the access path
// the optimizer chose — a hands-on way to watch access path selection.
//
//	$ go run ./cmd/fastcol
//	fastcol> SELECT COUNT(*) FROM demo WHERE v BETWEEN 100 AND 200
//	count = 394  [index, APS ratio 0.08, decided in 3µs]
//	fastcol> EXPLAIN SELECT v FROM demo WHERE v < 2000000
//	would use scan (APS ratio 5.41)
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"fastcolumns"
	"fastcolumns/internal/memsim"
	"fastcolumns/internal/tpch"
	"fastcolumns/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fastcol: ")
	n := flag.Int("n", 2_000_000, "demo table size")
	useTPCH := flag.Bool("tpch", false, "load TPC-H lineitem (table `lineitem`) instead of the demo table")
	sf := flag.Float64("sf", 0.05, "TPC-H scale factor with -tpch")
	calibrate := flag.Bool("calibrate", false, "calibrate the optimizer to this host (slower startup)")
	timeout := flag.Duration("timeout", 0, "per-statement deadline (0 = none), e.g. -timeout 2s")
	hwfile := flag.String("hwfile", "", "load a saved host profile (see cmd/calibrate -save)")
	flag.Parse()

	cfg := fastcolumns.Config{}
	switch {
	case *hwfile != "":
		hw, err := memsim.LoadProfile(*hwfile)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Hardware = hw
	case *calibrate:
		fmt.Fprintln(os.Stderr, "calibrating host ...")
		cfg.Hardware = fastcolumns.CalibrateHardware()
	}
	eng := fastcolumns.New(cfg)

	if *useTPCH {
		loadTPCH(eng, *sf)
		fmt.Fprintf(os.Stderr, "loaded lineitem at SF %g; attributes: shipdate, discount, quantity, price (indexed: shipdate)\n", *sf)
	} else {
		loadDemo(eng, *n)
		fmt.Fprintf(os.Stderr, "loaded table demo(v, w) with %d rows; v indexed\n", *n)
	}

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("fastcol> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case strings.EqualFold(line, "quit"), strings.EqualFold(line, "exit"):
			return
		default:
			run(eng, line, *timeout)
		}
		fmt.Print("fastcol> ")
	}
}

func loadDemo(eng *fastcolumns.Engine, n int) {
	tbl, err := eng.CreateTable("demo")
	if err != nil {
		log.Fatal(err)
	}
	must(tbl.AddColumn("v", workload.Uniform(1, n, 1<<22)))
	must(tbl.AddColumn("w", workload.Uniform(2, n, 1<<16)))
	must(tbl.CreateIndex("v"))
	must(tbl.Analyze("w", 128))
}

func loadTPCH(eng *fastcolumns.Engine, sf float64) {
	l := tpch.Generate(sf, 1)
	tbl, err := eng.CreateTable("lineitem")
	if err != nil {
		log.Fatal(err)
	}
	must(tbl.AddColumn("shipdate", l.ShipDate))
	must(tbl.AddColumn("discount", l.Discount))
	must(tbl.AddColumn("quantity", l.Quantity))
	must(tbl.AddColumn("price", l.ExtendedPrice))
	must(tbl.CreateIndex("shipdate"))
	must(tbl.CreateBitmapIndex("discount")) // 11 distinct values
}

func run(eng *fastcolumns.Engine, stmt string, timeout time.Duration) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := eng.QueryContext(ctx, stmt)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Printf("error: statement exceeded the %v deadline\n", timeout)
			return
		}
		fmt.Println("error:", err)
		return
	}
	elapsed := time.Since(start).Round(time.Microsecond)
	tag := fmt.Sprintf("[%v, APS ratio %.3f, %v]", res.Decision.Path, res.Decision.Ratio, elapsed)
	switch {
	case res.Agg != nil:
		a := res.Agg
		switch a.Kind {
		case "count":
			fmt.Printf("count = %d  %s\n", a.Count, tag)
		case "sum":
			fmt.Printf("sum = %d over %d rows  %s\n", a.Sum, a.Count, tag)
		case "min":
			fmt.Printf("min = %d over %d rows  %s\n", a.Min, a.Count, tag)
		case "max":
			fmt.Printf("max = %d over %d rows  %s\n", a.Max, a.Count, tag)
		case "avg":
			fmt.Printf("avg = %.3f over %d rows  %s\n", a.Avg, a.Count, tag)
		}
	case res.RowIDs != nil:
		const show = 8
		fmt.Printf("%d rows  %s\n", len(res.RowIDs), tag)
		for i, id := range res.RowIDs {
			if i == show {
				fmt.Printf("  ... %d more\n", len(res.RowIDs)-show)
				break
			}
			if res.Values != nil {
				fmt.Printf("  row %d -> %d\n", id, res.Values[i])
			} else {
				fmt.Printf("  row %d\n", id)
			}
		}
	default:
		fmt.Printf("would use %v (APS ratio %.3f)\n", res.Decision.Path, res.Decision.Ratio)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
