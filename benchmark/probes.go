package main

import (
	"context"
	"math"
	"runtime"
	"sync"
	"time"

	"fastcolumns"
	rt "fastcolumns/internal/runtime"
	"fastcolumns/internal/scheduler"
)

// maxReplay is how many recorded batches a traced run replays at most;
// replayBudget cuts that down when one batch is expensive, so that the
// probes of a scan-heavy workload do not outlast its measured run.
const (
	maxReplay    = 64
	replayBudget = 4 * time.Second
)

// replayed is what replaying the recorded batches off the clock measured,
// one entry per batch unless noted.
type replayed struct {
	q          []int
	decideNs   []float64 // Table.Explain, median of decideReps calls
	indexPath  []bool    // Explain chose the index
	scanNs     []float64 // SelectVia(PathScan).Elapsed
	indexNs    []float64 // SelectVia(PathIndex).Elapsed
	rows       []int64
	selectWall []float64 // Table.SelectBatch, wall
	countWall  []float64 // Table.Count, wall
}

const decideReps = 5

// evenly picks k of n indices, evenly spaced and starting at 0.
func evenly(n, k int) []int {
	if k > n {
		k = n
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

// replay runs recorded batches through each layer's narrowest public
// entry point: Explain for the optimizer alone, SelectVia for each access
// path alone, SelectBatch against Count for what materialising rowIDs
// costs. The first batch prices the rest: as many evenly spaced ones are
// replayed as replayBudget pays for, and no fewer than three.
func replay(tbl *fastcolumns.Table, attr string, batches []batchRecord) (replayed, error) {
	var r replayed
	if len(batches) == 0 {
		return r, nil
	}
	began := time.Now()
	if err := r.one(tbl, attr, batches[0].preds); err != nil {
		return r, err
	}
	k := int(replayBudget / (time.Since(began) + 1))
	if k < 3 {
		k = 3
	}
	if k > maxReplay {
		k = maxReplay
	}
	for _, i := range evenly(len(batches), k)[1:] {
		if err := r.one(tbl, attr, batches[i].preds); err != nil {
			return r, err
		}
	}
	return r, nil
}

// one replays one batch. Results go back to the arena, as a caller that
// is done with them would return them.
func (r *replayed) one(tbl *fastcolumns.Table, attr string, preds []fastcolumns.Predicate) error {
	reps := make([]float64, decideReps)
	var d fastcolumns.Decision
	for k := range reps {
		t0 := time.Now()
		var err error
		if d, err = tbl.Explain(attr, preds); err != nil {
			return err
		}
		reps[k] = float64(time.Since(t0))
	}
	scan, err := tbl.SelectVia(fastcolumns.PathScan, attr, preds)
	if err != nil {
		return err
	}
	scanNs := float64(scan.Elapsed)
	scan.Release()
	idx, err := tbl.SelectVia(fastcolumns.PathIndex, attr, preds)
	if err != nil {
		return err
	}
	idxNs := float64(idx.Elapsed)
	idx.Release()

	t0 := time.Now()
	sel, err := tbl.SelectBatch(attr, preds)
	if err != nil {
		return err
	}
	selWall := float64(time.Since(t0))
	var rows int64
	for _, ids := range sel.RowIDs {
		rows += int64(len(ids))
	}
	sel.Release()
	t0 = time.Now()
	if _, _, err := tbl.Count(attr, preds); err != nil {
		return err
	}
	cntWall := float64(time.Since(t0))

	r.q = append(r.q, len(preds))
	r.decideNs = append(r.decideNs, medianFloat(reps))
	r.indexPath = append(r.indexPath, d.Path == fastcolumns.PathIndex)
	r.scanNs = append(r.scanNs, scanNs)
	r.indexNs = append(r.indexNs, idxNs)
	r.rows = append(r.rows, rows)
	r.selectWall = append(r.selectWall, selWall)
	r.countWall = append(r.countWall, cntWall)
	return nil
}

// noopRoundtrip drives the workload's own schedule through a scheduler
// whose executor does nothing: the latency left is the window timer, batch
// formation and reply delivery — the floor under the serve path.
func (fx *fixture) noopRoundtrip(seed int64, dur time.Duration) float64 {
	sched := scheduler.New(func(_ context.Context, _ string, preds []fastcolumns.Predicate) ([][]fastcolumns.RowID, error) {
		return make([][]fastcolumns.RowID, len(preds)), nil
	}, scheduler.Options{})
	defer sched.Close()
	log := fx.drive(func(ctx context.Context, p fastcolumns.Predicate) (<-chan fastcolumns.Reply, error) {
		return sched.SubmitContext(ctx, fx.w.attr, p)
	}, nil, seed, dur, false)
	return us(quantile(latencies(log.samples), 50))
}

// streamBandwidth is the harness's own ceiling for a scan: bytes/s at
// which GOMAXPROCS goroutines can read nbytes of memory once, each summing
// a contiguous share as 64-bit words, best of five passes.
func streamBandwidth(nbytes int) float64 {
	words := make([]uint64, nbytes/8)
	for i := range words {
		words[i] = uint64(i)
	}
	procs := runtime.GOMAXPROCS(0)
	sums := make([]uint64, procs)
	best := math.Inf(1)
	for pass := 0; pass < 5; pass++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for p := 0; p < procs; p++ {
			part := words[p*len(words)/procs : (p+1)*len(words)/procs]
			wg.Add(1)
			rt.Go(func() {
				defer wg.Done()
				var a, b, c, d uint64
				i := 0
				for ; i+4 <= len(part); i += 4 {
					a += part[i]
					b += part[i+1]
					c += part[i+2]
					d += part[i+3]
				}
				for ; i < len(part); i++ {
					a += part[i]
				}
				sums[p] += a + b + c + d
			})
		}
		wg.Wait()
		if s := time.Since(t0).Seconds(); s < best {
			best = s
		}
	}
	sink = sums
	return float64(len(words)*8) / best
}

// sink keeps streamBandwidth's sums alive so the reads are not optimised away.
var sink []uint64

// writeProbe times Table.Append and Table.Merge with no reader running.
// An idle append takes tens of nanoseconds, too few for the clock to
// resolve one by one, so appends are timed in groups: each of the groups
// entries returned is one group's wall time divided by its perGroup
// appends. When mergeEvery > 0 a merge follows every mergeEvery appends,
// and its wall time in nanoseconds is returned too.
func (fx *fixture) writeProbe(tbl *fastcolumns.Table, groups, perGroup, mergeEvery int) (appendNs []float64, mergeNs []int64, err error) {
	for g := 0; g < groups; g++ {
		t0 := time.Now()
		for i := 0; i < perGroup; i++ {
			if err := fx.appendNext(tbl); err != nil {
				return nil, nil, err
			}
		}
		appendNs = append(appendNs, float64(time.Since(t0))/float64(perGroup))
		if mergeEvery > 0 && (g+1)*perGroup%mergeEvery == 0 {
			t0 := time.Now()
			if err := fx.merge(tbl); err != nil {
				return nil, nil, err
			}
			mergeNs = append(mergeNs, int64(time.Since(t0)))
		}
	}
	return appendNs, mergeNs, nil
}
