// Hybrid layouts: the same attribute stored alone vs inside a 10-column
// group. Scans over a group member drag every neighbor attribute through
// the memory hierarchy, so the secondary index pays off over a much wider
// selectivity range (Observation 2.3, Figure 15) — and the optimizer
// reads that straight from the layout's tuple size.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"fastcolumns"
)

const (
	n      = 1_000_000
	domain = 1 << 20
	groupW = 10
)

func main() {
	log.SetFlags(0)
	eng := fastcolumns.New(fastcolumns.Config{})

	rng := rand.New(rand.NewSource(1))
	values := make([]fastcolumns.Value, n)
	for i := range values {
		values[i] = rng.Int31n(domain)
	}

	// Narrow: pure columnar storage.
	narrow, err := eng.CreateTable("narrow")
	if err != nil {
		log.Fatal(err)
	}
	if err := narrow.AddColumn("price", values); err != nil {
		log.Fatal(err)
	}

	// Wide: the same attribute inside a 10-column group (think: an
	// operational row-group holding the other order attributes).
	wide, err := eng.CreateTable("wide")
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, groupW)
	cols := make([][]fastcolumns.Value, groupW)
	names[0] = "price"
	cols[0] = values
	for j := 1; j < groupW; j++ {
		names[j] = fmt.Sprintf("attr%d", j)
		col := make([]fastcolumns.Value, n)
		for i := range col {
			col[i] = rng.Int31()
		}
		cols[j] = col
	}
	if err := wide.AddColumnGroup(names, cols); err != nil {
		log.Fatal(err)
	}

	for _, tbl := range []*fastcolumns.Table{narrow, wide} {
		if err := tbl.CreateIndex("price"); err != nil {
			log.Fatal(err)
		}
	}

	// Sweep selectivity and compare decisions. In the band between the
	// two layouts' break-even points the narrow table scans while the
	// wide table probes.
	fmt.Printf("%-12s %-14s %-14s\n", "selectivity", "narrow (ts=4)", "wide (ts=40)")
	for _, sel := range []float64{0.0005, 0.002, 0.01, 0.05, 0.2} {
		w := fastcolumns.Value(sel * domain)
		pred := []fastcolumns.Predicate{{Lo: 1000, Hi: 1000 + w}}
		dn, err := narrow.Explain("price", pred)
		if err != nil {
			log.Fatal(err)
		}
		dw, err := wide.Explain("price", pred)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12.2f%% %-14s %-14s\n", sel*100,
			fmt.Sprintf("%v (%.2f)", dn.Path, dn.Ratio),
			fmt.Sprintf("%v (%.2f)", dw.Path, dw.Ratio))
	}

	// Execute once on each to show identical answers despite different
	// layouts and (possibly) different access paths.
	pred := fastcolumns.Predicate{Lo: 5000, Hi: 5000 + domain/100}
	idsN, dn, err := narrow.Select("price", pred.Lo, pred.Hi)
	if err != nil {
		log.Fatal(err)
	}
	idsW, dw, err := wide.Select("price", pred.Lo, pred.Hi)
	if err != nil {
		log.Fatal(err)
	}
	same := len(idsN) == len(idsW)
	for i := 0; same && i < len(idsN); i++ {
		same = idsN[i] == idsW[i]
	}
	fmt.Printf("\n1%% query: narrow via %v, wide via %v, identical %d-row results: %v\n",
		dn.Path, dw.Path, len(idsN), same)
}
