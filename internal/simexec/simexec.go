// Package simexec executes access paths in simulated time: it walks the
// real data structures (the actual B+-tree, the actual result
// cardinalities) and charges every event on a memsim.Machine. This
// substitutes for the paper's four physical machines: the same workload
// can be "run" under any hardware profile (Figures 16 and 20, Table 2
// epochs), and the event counts come from the real index code rather than
// the closed-form model, so comparing the two validates the model.
package simexec

import (
	"math"
	"sort"

	"fastcolumns/internal/index"
	"fastcolumns/internal/memsim"
	"fastcolumns/internal/model"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/storage"
)

// nodeSpacing spreads simulated node addresses so distinct nodes occupy
// distinct cache lines (a 21-fanout leaf is ~256 bytes).
const nodeSpacing = 256

// writeThrashQ is the concurrency beyond which shared result writing
// starts thrashing TLB/L1 resources: the paper observes shared-scan
// performance degrading at 512 simultaneous selects and recovering when
// batched as 2x256 (Figure 13, Lesson 5).
const writeThrashQ = 256

// Engine runs simulated access paths over one column.
type Engine struct {
	hw     model.Hardware
	design model.Design
	tree   *index.Tree
	n      int
	// tupleSize is ts in bytes as seen by the scan (2 compressed, 4 for a
	// plain column, 4k for a k-wide column-group).
	tupleSize float64
	sorted    []storage.Value // for exact result cardinalities
}

// New builds an engine over the column data: the secondary index is bulk
// loaded for real, and a sorted copy supports exact cardinality counts.
func New(hw model.Hardware, design model.Design, data []storage.Value, tupleSize float64) *Engine {
	col := storage.NewColumn("v", data)
	sorted := append([]storage.Value(nil), data...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return &Engine{
		hw:        hw,
		design:    design,
		tree:      index.Build(col, int(design.Fanout)),
		n:         len(data),
		tupleSize: tupleSize,
		sorted:    sorted,
	}
}

// N returns the relation size.
func (e *Engine) N() int { return e.n }

// Tree exposes the real index (tests inspect its shape).
func (e *Engine) Tree() *index.Tree { return e.tree }

// Count returns the exact number of qualifying tuples for a predicate.
func (e *Engine) Count(p scan.Predicate) int {
	lo := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] >= p.Lo })
	hi := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > p.Hi })
	return hi - lo
}

// writePenalty models the result-distribution overhead of very wide
// sharing: beyond writeThrashQ open output buffers, TLB and L1 pressure
// inflate the effective write cost (Lesson 5). Batching the queries into
// ceil(q/256) runs avoids it, which is exactly the "512-batch" point in
// Figure 13.
func writePenalty(q int) float64 {
	if q <= writeThrashQ {
		return 1
	}
	return 1 + float64(q-writeThrashQ)/float64(writeThrashQ)
}

// SharedScan returns the simulated seconds for answering the batch with
// one shared sequential scan: the column streams once at scan bandwidth
// overlapped with q predicate evaluations per tuple, and each query
// writes its exact result cardinality at result bandwidth.
func (e *Engine) SharedScan(preds []scan.Predicate) float64 {
	m := memsim.NewMachine(e.hw)
	q := float64(len(preds))
	read := float64(e.n) * e.tupleSize / e.hw.ScanBandwidth
	cpu := q * 2 * e.hw.Pipelining * e.hw.ClockPeriod * float64(e.n)
	m.Advance(math.Max(read, cpu))
	pen := writePenalty(len(preds))
	for _, p := range preds {
		k := e.Count(p)
		m.Write(pen * float64(k) * e.design.ResultWidth)
	}
	return m.Now()
}

// SharedScanBatched splits the batch into runs of at most batch queries
// and sums their shared scans — the mitigation for write thrashing.
func (e *Engine) SharedScanBatched(preds []scan.Predicate, batch int) float64 {
	if batch <= 0 {
		batch = writeThrashQ
	}
	var total float64
	for lo := 0; lo < len(preds); lo += batch {
		hi := min(lo+batch, len(preds))
		total += e.SharedScan(preds[lo:hi])
	}
	return total
}

// ConcIndex returns the simulated seconds for answering the batch with a
// concurrent secondary-index scan. Every query's descent and leaf visits
// are read off the real tree; each node visit is one simulated random
// access (naturally shared at the top levels through the cache
// simulator), leaf entries stream at leaf bandwidth, results write at
// result bandwidth, and each result sorts at one cache access per
// comparison.
func (e *Engine) ConcIndex(preds []scan.Predicate) float64 {
	m := memsim.NewMachine(e.hw)
	entryBytes := e.design.AttrWidth + e.design.OffsetWidth
	for _, p := range preds {
		k := e.tree.Trace(p.Lo, p.Hi, func(ev index.TraceEvent) {
			m.Random(uint64(ev.NodeID) * nodeSpacing)
			switch ev.Kind {
			case index.TraceInternal:
				m.CacheReads(ev.KeysRead)
				m.CPU(float64(ev.KeysRead))
			case index.TraceLeaf:
				m.SeqRead(float64(ev.Entries)*entryBytes, e.hw.LeafBandwidth)
			}
		})
		m.Write(float64(k) * e.design.ResultWidth)
		if k >= 2 {
			m.CacheReads(int(float64(k) * math.Log2(float64(k))))
		}
	}
	return m.Now()
}

// Run returns the simulated latency of the batch under the given path.
func (e *Engine) Run(path model.Path, preds []scan.Predicate) float64 {
	if path == model.PathIndex {
		return e.ConcIndex(preds)
	}
	return e.SharedScan(preds)
}

// Crossover finds the per-query selectivity at which the two simulated
// paths break even for a batch of q equal queries over uniform data in
// [0, domain), by geometric bisection. ok is false when one path wins
// everywhere.
func (e *Engine) Crossover(q int, domain storage.Value) (float64, bool) {
	diff := func(s float64) float64 {
		preds := e.uniformPreds(q, s, domain)
		return e.ConcIndex(preds) - e.SharedScan(preds)
	}
	lo, hi := 1e-7, 1.0
	if diff(lo) >= 0 {
		return 0, false
	}
	if diff(hi) <= 0 {
		return 1, false
	}
	for i := 0; i < 40; i++ {
		mid := math.Sqrt(lo * hi)
		if diff(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi), true
}

// uniformPreds builds q equal-width range predicates with per-query
// selectivity s over a uniform domain, staggered so the batch touches
// different regions (matching the experimental methodology).
func (e *Engine) uniformPreds(q int, s float64, domain storage.Value) []scan.Predicate {
	width := storage.Value(math.Round(s * float64(domain)))
	if width < 1 && s > 0 {
		width = 1
	}
	preds := make([]scan.Predicate, q)
	for i := range preds {
		start := storage.Value((int64(i) * int64(domain)) / int64(max(q, 1)) % int64(domain))
		if start+width >= domain {
			start = domain - width - 1
			if start < 0 {
				start = 0
			}
		}
		preds[i] = scan.Predicate{Lo: start, Hi: start + width - 1}
		if width == 0 {
			preds[i] = scan.Predicate{Lo: start, Hi: start - 1} // empty
		}
	}
	return preds
}

// ConcBitmapOver returns the simulated seconds for answering the batch
// with a value-per-bitmap index of the given domain cardinality. It
// charges the real word traffic: each query streams ceil(covered values)
// bitmaps of N/64 words, pays a pipelined OR per word, extracts each of
// its exact result positions at cache latency, and writes the results.
func (e *Engine) ConcBitmapOver(preds []scan.Predicate, cardinality int, domain storage.Value) float64 {
	if cardinality < 1 {
		cardinality = 1
	}
	m := memsim.NewMachine(e.hw)
	words := float64((e.n + 63) / 64)
	for _, p := range preds {
		if p.Lo > p.Hi {
			continue
		}
		// Distinct domain values covered by the range, assuming the
		// dictionary spreads the cardinality evenly over the domain.
		frac := float64(p.Hi-p.Lo+1) / float64(domain)
		covered := math.Ceil(frac * float64(cardinality))
		if covered < 1 {
			covered = 1
		}
		m.SeqRead(covered*words*8, e.hw.ScanBandwidth)
		m.CPU(covered * words)
		k := e.Count(p)
		m.CacheReads(k)
		m.Write(float64(k) * e.design.ResultWidth)
	}
	return m.Now()
}
