// Concurrency: the paper's headline result, live. The same per-query
// selectivity that makes a lone query probe the secondary index makes a
// wide batch share a sequential scan — there is no fixed selectivity
// threshold, the break-even point slopes with concurrency (Figure 1).
//
// The example first asks the optimizer directly (Explain) across rising
// batch widths, then demonstrates the asynchronous Server front door
// where batches form naturally from concurrent submitters.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"fastcolumns"
)

const (
	n      = 4_000_000
	domain = 1 << 22
)

func main() {
	log.SetFlags(0)
	eng := fastcolumns.New(fastcolumns.Config{})
	tbl, err := eng.CreateTable("events")
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]fastcolumns.Value, n)
	for i := range data {
		data[i] = rng.Int31n(domain)
	}
	if err := tbl.AddColumn("ts", data); err != nil {
		log.Fatal(err)
	}
	if err := tbl.CreateIndex("ts"); err != nil {
		log.Fatal(err)
	}

	// Part 1: the sloped divide. Per-query selectivity stays ~0.05%;
	// only the batch width changes.
	sel := 0.0005
	width := fastcolumns.Value(sel * float64(domain))
	fmt.Println("per-query selectivity fixed at 0.05%; only concurrency varies:")
	for _, q := range []int{1, 4, 16, 64, 256} {
		preds := make([]fastcolumns.Predicate, q)
		for i := range preds {
			lo := rng.Int31n(domain - int32(width))
			preds[i] = fastcolumns.Predicate{Lo: lo, Hi: lo + width}
		}
		d, err := tbl.Explain("ts", preds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  q=%3d  -> %-5v (APS ratio %.3f)\n", q, d.Path, d.Ratio)
	}

	// Part 2: the Server batches whatever arrives inside the window, so
	// concurrency is discovered, not declared.
	srv := eng.Serve(fastcolumns.ServeOptions{Window: 2 * time.Millisecond})
	defer srv.Close()

	run := func(clients int) {
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				lo := int32((c * 37) % (domain - int(width)))
				ch, err := srv.Submit("events", "ts", fastcolumns.Predicate{Lo: lo, Hi: lo + width})
				if err != nil {
					log.Print(err)
					return
				}
				if r := <-ch; r.Err != nil {
					log.Print(r.Err)
				}
			}(c)
		}
		wg.Wait()
		fmt.Printf("  %3d concurrent clients answered in %v total\n",
			clients, time.Since(start).Round(time.Microsecond))
	}
	fmt.Println("serving concurrent clients through the batching scheduler:")
	for _, clients := range []int{1, 16, 128} {
		run(clients)
	}
}
