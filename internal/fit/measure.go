package fit

import (
	"context"
	"sort"
	"time"

	"fastcolumns/internal/exec"
	"fastcolumns/internal/model"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/workload"
)

// MeasureObservations runs both access paths on the relation across a
// (concurrency x selectivity) sweep and returns wall-clock observations
// ready for Fit — the "small number of experiments" Appendix C says a new
// setup needs before the model captures machine performance. The context
// bounds the whole sweep: cancellation is honored between runs, so a
// deadline cuts a calibration short instead of hanging the caller.
func MeasureObservations(ctx context.Context, rel *exec.Relation, tupleSize float64, domain int32,
	qs []int, sels []float64, trials int) ([]Observation, error) {
	if trials < 1 {
		trials = 1
	}
	n := rel.Column.Len()
	// The scan observation is the plain shared scan even beside a
	// compressed twin or a pruner: time it on the base column alone.
	base := &exec.Relation{Column: rel.Column, Index: rel.Index}
	var obs []Observation
	for _, q := range qs {
		for _, s := range sels {
			preds := workload.Batch(int64(q)*1000+int64(s*1e6), q, s, domain)
			scanSec, rows, err := medianRun(ctx, base, model.PathScan, preds, trials)
			if err != nil {
				return nil, err
			}
			indexSec, _, err := medianRun(ctx, base, model.PathIndex, preds, trials)
			if err != nil {
				return nil, err
			}
			// When the relation carries a compressed twin, also time the
			// packed SWAR scan so Fit can calibrate its Appendix D term.
			packedSec := 0.0
			if rel.Compressed != nil {
				packed := &exec.Relation{Column: rel.Column, Compressed: rel.Compressed}
				packedSec, _, err = medianRun(ctx, packed, model.PathScan, preds, trials)
				if err != nil {
					return nil, err
				}
			}
			// Record the realized mean selectivity, not the nominal target:
			// the model is fitted against what actually qualified.
			realized := float64(rows) / float64(q) / float64(n)
			obs = append(obs, Observation{
				Q: q, Selectivity: realized, N: float64(n), TupleSize: tupleSize,
				ScanSec: scanSec, IndexSec: indexSec, PackedScanSec: packedSec,
			})
		}
	}
	return obs, nil
}

func medianRun(ctx context.Context, rel *exec.Relation, path model.Path, preds []scan.Predicate, trials int) (sec float64, totalRows int, err error) {
	times := make([]time.Duration, 0, trials)
	for t := 0; t < trials; t++ {
		res, err := exec.Run(ctx, rel, path, preds, exec.Options{})
		if err != nil {
			return 0, 0, err
		}
		totalRows = res.TotalRows()
		times = append(times, res.Elapsed)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2].Seconds(), totalRows, nil
}
