// Quickstart: build a table, add a secondary index and statistics, and
// watch the optimizer pick a different access path for a point lookup
// than for a wide analytical range — the core behaviour of FastColumns.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"fastcolumns"
)

func main() {
	log.SetFlags(0)

	// An engine modeled on the paper's primary server. Use
	// fastcolumns.CalibrateHardware() to measure the host instead.
	eng := fastcolumns.New(fastcolumns.Config{})

	// A table of 4 million uniformly distributed 32-bit values.
	const n = 4_000_000
	const domain = 1 << 22
	rng := rand.New(rand.NewSource(1))
	data := make([]fastcolumns.Value, n)
	for i := range data {
		data[i] = rng.Int31n(domain)
	}
	tbl, err := eng.CreateTable("readings")
	if err != nil {
		log.Fatal(err)
	}
	if err := tbl.AddColumn("value", data); err != nil {
		log.Fatal(err)
	}
	// A secondary B+-tree (memory-tuned fanout); it also counts each
	// query's selectivity exactly for the optimizer.
	if err := tbl.CreateIndex("value"); err != nil {
		log.Fatal(err)
	}

	queries := []struct {
		name   string
		lo, hi fastcolumns.Value
	}{
		{"point lookup", 12345, 12345},
		{"narrow range (~0.1%)", 100000, 100000 + domain/1000},
		{"analytical range (~25%)", 0, domain / 4},
	}
	for _, q := range queries {
		ids, decision, err := tbl.Select("value", q.lo, q.hi)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s -> %5d rows via %-5v (APS ratio %.3f, decided in %v)\n",
			q.name, len(ids), decision.Path, decision.Ratio, decision.Elapsed)
	}

	// Appends land in a delta store and become visible after Merge, with
	// the index merged with the delta into a new tree.
	if err := tbl.Append([]fastcolumns.Value{domain + 7}); err != nil {
		log.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		log.Fatal(err)
	}
	ids, _, err := tbl.Select("value", domain+7, domain+7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after append+merge: value %d found at rowIDs %v\n", domain+7, ids)
}
