// Low cardinality: Appendix E's third access path in action. A status
// column with 64 distinct values carries a B+-tree, a bitmap index, and
// statistics; the optimizer arbitrates among scan, tree, and bitmap per
// query shape — and the DSL front end makes the decisions visible.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"fastcolumns"
)

func main() {
	log.SetFlags(0)
	eng := fastcolumns.New(fastcolumns.Config{})
	tbl, err := eng.CreateTable("orders")
	if err != nil {
		log.Fatal(err)
	}

	const n = 2_000_000
	rng := rand.New(rand.NewSource(1))
	status := make([]fastcolumns.Value, n) // 64 distinct values
	amount := make([]fastcolumns.Value, n)
	for i := range status {
		status[i] = rng.Int31n(64)
		amount[i] = rng.Int31n(100000)
	}
	must(tbl.AddColumn("status", status))
	must(tbl.AddColumn("amount", amount))
	must(tbl.CreateIndex("status"))       // memory-tuned B+-tree
	must(tbl.CreateBitmapIndex("status")) // 64 bitmaps of n bits

	queries := []string{
		"EXPLAIN SELECT status FROM orders WHERE status = 17",
		"EXPLAIN SELECT status FROM orders WHERE status BETWEEN 10 AND 20",
		"EXPLAIN SELECT status FROM orders WHERE status >= 32",
		"SELECT COUNT(*) FROM orders WHERE status = 17",
		"SELECT SUM(amount) FROM orders WHERE status BETWEEN 0 AND 3",
		"SELECT AVG(amount) FROM orders WHERE status = 63",
	}
	for _, q := range queries {
		res, err := eng.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case res.Agg != nil:
			a := res.Agg
			switch a.Kind {
			case "count":
				fmt.Printf("%-62s -> %d rows via %v\n", q, a.Count, res.Decision.Path)
			case "sum":
				fmt.Printf("%-62s -> sum %d (%d rows) via %v\n", q, a.Sum, a.Count, res.Decision.Path)
			case "avg":
				fmt.Printf("%-62s -> avg %.1f (%d rows) via %v\n", q, a.Avg, a.Count, res.Decision.Path)
			}
		default:
			fmt.Printf("%-62s -> would use %v (APS ratio %.3f)\n", q, res.Decision.Path, res.Decision.Ratio)
		}
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
