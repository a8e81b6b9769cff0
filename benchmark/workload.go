package main

import (
	"math/rand"
	"time"

	"fastcolumns"
)

// queryKind is one entry of a workload's read mix: a share of the reads
// and their selectivity (0 is a point get on a value that exists).
type queryKind struct {
	share       float64
	selectivity float64
}

// workload describes one traffic shape and the fixture it runs against.
// Every fixture is one table with one column of defaultRows uniform values.
type workload struct {
	name  string
	table string
	attr  string
	// domain is the number of distinct values the column draws from.
	domain   int
	compress bool
	mix      []queryKind

	// Open loop when rate > 0: Poisson arrivals at rate queries/s, each
	// with a deadline counted from its intended send time.
	rate     float64
	deadline time.Duration
	// Closed loop otherwise: clients generators, each submitting burst
	// queries, waiting for every reply, and repeating.
	clients int
	burst   int

	// A writer beside the reads when appendRate > 0: one Table.Append every
	// 1/appendRate seconds and a Table.Merge after every mergeEvery appends.
	appendRate float64
	mergeEvery int
}

// defaultRows and warmSeconds are fixed: a result made with other values
// would be a result of another benchmark. Tests set runConfig's fields.
const (
	defaultRows = 2_000_000
	warmSeconds = 2.0
)

// packedDomain keeps column c inside the 16-bit dictionary Compress needs.
const packedDomain = 60_000

func workloads(rows int) []*workload {
	return []*workload{
		{
			name: "point_open", table: "t", attr: "a", domain: rows,
			mix:  []queryKind{{1, 0}},
			rate: 5000, deadline: 250 * time.Millisecond,
		},
		{
			name: "range05_burst64", table: "t", attr: "a", domain: rows,
			mix:     []queryKind{{1, 0.005}},
			clients: 1, burst: 64,
		},
		{
			name: "scan5_burst64_packed", table: "t", attr: "c", domain: packedDomain, compress: true,
			mix:     []queryKind{{1, 0.05}},
			clients: 1, burst: 64,
		},
		{
			name: "mixed_append_closed", table: "w", attr: "a", domain: rows,
			mix:     []queryKind{{0.5, 0}, {0.3, 0.005}, {0.2, 0.05}},
			clients: 8, burst: 1,
			appendRate: 50, mergeEvery: 250,
		},
	}
}

func findWorkload(name string, rows int) *workload {
	for _, w := range workloads(rows) {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) open() bool { return w.rate > 0 }

// pred draws one predicate of the workload's mix. Point gets take the
// value of a random base row, so every one of them has a result.
func (w *workload) pred(rng *rand.Rand, base []fastcolumns.Value) fastcolumns.Predicate {
	u := rng.Float64()
	kind := w.mix[len(w.mix)-1]
	for _, k := range w.mix {
		if u < k.share {
			kind = k
			break
		}
		u -= k.share
	}
	if kind.selectivity == 0 {
		v := base[rng.Intn(len(base))]
		return fastcolumns.Predicate{Lo: v, Hi: v}
	}
	width := int(kind.selectivity * float64(w.domain))
	if width < 1 {
		width = 1
	}
	lo := rng.Intn(w.domain - width + 1)
	return fastcolumns.Predicate{Lo: fastcolumns.Value(lo), Hi: fastcolumns.Value(lo + width - 1)}
}
