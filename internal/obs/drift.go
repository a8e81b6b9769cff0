package obs

import (
	"math"
	"sort"
	"sync"
)

// Model-drift accounting. The Appendix C fit calibrates the cost model's
// constants (alpha, fp, f_s, beta) to one host; once fitted, predicted
// batch costs should track measured runtimes. The model predicts on an
// idealized machine, so some host-wide offset is expected, and it cancels
// out of the APS *ratio* the decision rule uses — but only when every
// path shares it. An offset that only the scan (or only the probe) pays
// moves the scan/probe break-even point just as surely as a wrong
// constant does, and a workload that only ever runs one path cannot show
// whether its offset is shared.
//
// Drift therefore reports two verdicts. Shape: measured/predicted ratios
// accumulate per (path, selectivity-band) cell, and each cell reports how
// far its ratio deviates from the global one in log space. A stale or
// mis-fitted design pulls cells apart — e.g. a stale alpha mis-weighs
// result writing, which only shows at high selectivity — and MaxDrift
// crossing the threshold sets Stale. Shape needs two populated cells to
// see anything. Scale: ScaleDrift is how far the global ratio itself is
// from 1 in log space, and ScaleStale says it crossed the same threshold;
// it sees a one-cell workload's miscalibration, but not whether the path
// that never ran shares it. Either verdict is the signal to re-run
// internal/fit on this host.

// selBands partitions mean per-query selectivity into log-spaced bands;
// band i covers [selBands[i-1], selBands[i]) with band 0 starting at 0.
var selBands = [...]float64{1e-4, 1e-3, 1e-2, 1e-1}

// NumSelBands is the number of selectivity bands (the last band is
// everything at or above 10% mean selectivity).
const NumSelBands = len(selBands) + 1

// BandOf returns the selectivity band index for a mean per-query
// selectivity.
func BandOf(meanSel float64) int {
	for i, hi := range selBands {
		if meanSel < hi {
			return i
		}
	}
	return len(selBands)
}

// BandBounds returns the [lo, hi) selectivity range of a band (the last
// band's hi is 1).
func BandBounds(band int) (lo, hi float64) {
	if band <= 0 {
		return 0, selBands[0]
	}
	if band >= len(selBands) {
		return selBands[len(selBands)-1], 1
	}
	return selBands[band-1], selBands[band]
}

// DefaultDriftThreshold is the staleness trigger: a cell whose
// measured/predicted ratio deviates from the global ratio by more than
// ln(2) — a factor of two in either direction — indicates the fitted
// constants no longer describe this host in that workload region.
const DefaultDriftThreshold = 0.693

// DefaultDriftMinSamples is how many batches a cell needs before it
// participates in the staleness verdict; single observations are too
// noisy to re-calibrate over.
const DefaultDriftMinSamples = 3

// cellKey identifies one (path, selectivity-band) accumulation cell.
type cellKey struct {
	path string
	band int
}

// driftCell accumulates one cell's evidence.
type driftCell struct {
	count    int64
	sumPred  float64 // predicted seconds
	sumMeas  float64 // measured seconds
	sumRatio float64 // sum of measured/predicted (per-batch ratios)
}

// Drift is the online accumulator. Record is cheap (one map probe and
// three float adds under a mutex, allocation-free once a cell exists).
type Drift struct {
	mu        sync.Mutex
	cells     map[cellKey]*driftCell
	threshold float64
}

// NewDrift returns an accumulator with the given staleness threshold
// (<= 0 selects DefaultDriftThreshold).
func NewDrift(threshold float64) *Drift {
	if threshold <= 0 {
		threshold = DefaultDriftThreshold
	}
	return &Drift{cells: make(map[cellKey]*driftCell), threshold: threshold}
}

// Record folds one executed batch into its cell. path is the chosen
// access path's name, meanSel the batch's mean per-query selectivity
// estimate, predicted the model's cost for the chosen path in seconds,
// and measured the batch's wall time in seconds. Batches without a
// usable prediction (forced paths, zero estimates) are skipped.
func (d *Drift) Record(path string, meanSel, predicted, measured float64) {
	if predicted <= 0 || measured <= 0 || math.IsNaN(predicted) || math.IsNaN(measured) {
		return
	}
	key := cellKey{path: path, band: BandOf(meanSel)}
	d.mu.Lock()
	c, ok := d.cells[key]
	if !ok {
		c = &driftCell{}
		d.cells[key] = c
	}
	c.count++
	c.sumPred += predicted
	c.sumMeas += measured
	c.sumRatio += measured / predicted
	d.mu.Unlock()
}

// DriftCell is one (path, selectivity-band) row of the report.
type DriftCell struct {
	// Path is the access path the cell's batches executed through.
	Path string `json:"path"`
	// Band indexes the selectivity band; BandLo/BandHi are its bounds.
	Band   int     `json:"band"`
	BandLo float64 `json:"band_lo"`
	BandHi float64 `json:"band_hi"`
	// Count is how many batches landed in the cell.
	Count int64 `json:"count"`
	// PredictedSeconds and MeasuredSeconds are the cell's totals.
	PredictedSeconds float64 `json:"predicted_seconds"`
	MeasuredSeconds  float64 `json:"measured_seconds"`
	// Ratio is the cell's measured/predicted calibration factor.
	Ratio float64 `json:"ratio"`
	// Drift is |ln(Ratio / global Ratio)|: how far this cell's factor
	// deviates from the host-wide one. 0 means the model's shape holds
	// here; ln(2) means off by 2x relative to the rest of the host.
	Drift float64 `json:"drift"`
}

// DriftReport is the operator-facing staleness verdict.
type DriftReport struct {
	// Cells holds every populated cell, sorted by (path, band).
	Cells []DriftCell `json:"cells"`
	// GlobalRatio is the host-wide measured/predicted factor — the
	// calibration offset the ratio-based decision rule tolerates when
	// every path shares it.
	GlobalRatio float64 `json:"global_ratio"`
	// MaxDrift is the largest per-cell drift among cells with at least
	// MinSamples batches; Threshold is the staleness trigger.
	MaxDrift  float64 `json:"max_drift"`
	Threshold float64 `json:"threshold"`
	// MinSamples is the evidence floor a cell needs to drive the verdict.
	MinSamples int64 `json:"min_samples"`
	// Stale is the shape verdict, MaxDrift > Threshold: the cells
	// disagree with each other, so the fitted constants have gone stale
	// on this host and a re-calibration via internal/fit is due. It
	// cannot see an offset every populated cell shares; ScaleStale can.
	Stale bool `json:"stale"`
	// ScaleDrift is |ln GlobalRatio|: how far the host-wide factor is
	// from the model's own scale (0 with no evidence yet).
	ScaleDrift float64 `json:"scale_drift"`
	// ScaleStale is the scale verdict, ScaleDrift > Threshold: measured
	// costs are off the model's absolute predictions by more than the
	// threshold factor.
	ScaleStale bool `json:"scale_stale"`
}

// Report computes the current drift picture.
func (d *Drift) Report() DriftReport {
	d.mu.Lock()
	defer d.mu.Unlock()
	rep := DriftReport{
		Threshold:  d.threshold,
		MinSamples: DefaultDriftMinSamples,
	}
	// The global calibration factor comes only from cells with enough
	// evidence; otherwise one stray batch in a thin cell would drag the
	// reference away from every well-sampled cell. With no cell at the
	// floor yet, fall back to everything observed so far.
	var totPred, totMeas float64
	for _, c := range d.cells {
		if c.count >= rep.MinSamples {
			totPred += c.sumPred
			totMeas += c.sumMeas
		}
	}
	if totPred <= 0 {
		for _, c := range d.cells {
			totPred += c.sumPred
			totMeas += c.sumMeas
		}
	}
	if totPred > 0 {
		rep.GlobalRatio = totMeas / totPred
	}
	for key, c := range d.cells {
		lo, hi := BandBounds(key.band)
		cell := DriftCell{
			Path:             key.path,
			Band:             key.band,
			BandLo:           lo,
			BandHi:           hi,
			Count:            c.count,
			PredictedSeconds: c.sumPred,
			MeasuredSeconds:  c.sumMeas,
		}
		if c.sumPred > 0 {
			cell.Ratio = c.sumMeas / c.sumPred
		}
		if cell.Ratio > 0 && rep.GlobalRatio > 0 {
			cell.Drift = math.Abs(math.Log(cell.Ratio / rep.GlobalRatio))
		}
		if c.count >= rep.MinSamples && cell.Drift > rep.MaxDrift {
			rep.MaxDrift = cell.Drift
		}
		rep.Cells = append(rep.Cells, cell)
	}
	sort.Slice(rep.Cells, func(i, j int) bool {
		if rep.Cells[i].Path != rep.Cells[j].Path {
			return rep.Cells[i].Path < rep.Cells[j].Path
		}
		return rep.Cells[i].Band < rep.Cells[j].Band
	})
	rep.Stale = rep.MaxDrift > rep.Threshold
	if rep.GlobalRatio > 0 {
		rep.ScaleDrift = math.Abs(math.Log(rep.GlobalRatio))
	}
	rep.ScaleStale = rep.ScaleDrift > rep.Threshold
	return rep
}
