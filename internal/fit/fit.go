package fit

import (
	"errors"
	"math"

	"fastcolumns/internal/model"
)

// Observation is one measured data point: a workload configuration plus
// the latency each access path achieved on it. Figure 20's panels are
// collections of observations swept along q, selectivity, or N.
type Observation struct {
	Q           int
	Selectivity float64 // per-query selectivity s_i
	N           float64
	TupleSize   float64
	// ScanSec and IndexSec are the measured shared-scan and concurrent
	// index-scan latencies in seconds. NaN marks "not measured".
	ScanSec  float64
	IndexSec float64
	// PackedScanSec is the measured latency of the shared scan over the
	// word-packed compressed twin (the SWAR kernel path). NaN or zero
	// marks "not measured".
	PackedScanSec float64
}

// FitResult carries the fitted machine constants of Appendix C.
type FitResult struct {
	// Alpha is the scan result-writing overlap factor (Equation 22); the
	// paper finds 8 on its primary server.
	Alpha float64
	// Pipelining is the fitted fp of Equation 2.
	Pipelining float64
	// SortFitScale (f_s) and SortFitExp (beta) define the sorting
	// correction fc(N) of Equation 24; the paper reports beta = 0.38.
	SortFitScale float64
	SortFitExp   float64
	// ScanWidth is the fitted effective SWAR width of the packed scan
	// kernel (the scan-side W of the Appendix D treatment): how many
	// codes per operation the kernel actually delivers once flag
	// compaction and materialization overheads are paid. Zero when no
	// packed observations were available.
	ScanWidth float64
	// PackedAlpha is the packed kernel's fitted result-writing overlap
	// factor (its Equation 22 alpha). Zero when unfitted.
	PackedAlpha float64
	// ScanErr and IndexErr are the sums of normalized least-square errors
	// (the figure-title numbers in Figure 20); PackedErr is the same for
	// the packed-scan stage.
	ScanErr   float64
	IndexErr  float64
	PackedErr float64
}

// Design folds the fitted constants into a model design based on base.
func (r FitResult) Design(base model.Design) model.Design {
	base.Alpha = r.Alpha
	base.SortFitScale = r.SortFitScale
	base.SortFitExp = r.SortFitExp
	if r.ScanWidth > 0 {
		base.ScanSIMDWidth = r.ScanWidth
	}
	if r.PackedAlpha > 0 {
		base.PackedAlpha = r.PackedAlpha
	}
	return base
}

// normErr returns the normalized squared error sum_i ((pred-meas)/meas)^2
// over the observation list under the given predictor.
func normErr(obs []Observation, pred func(Observation) float64, meas func(Observation) float64) float64 {
	var e float64
	var n int
	for _, o := range obs {
		m := meas(o)
		if math.IsNaN(m) || m <= 0 {
			continue
		}
		d := (pred(o) - m) / m
		e += d * d
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return e
}

func params(o Observation, h model.Hardware, dg model.Design) model.Params {
	return model.Params{
		Workload: model.Uniform(o.Q, o.Selectivity),
		Dataset:  model.Dataset{N: o.N, TupleSize: o.TupleSize},
		Hardware: h,
		Design:   dg,
	}
}

// packedParams is params with the tuple width of the word-packed
// compressed twin: the SWAR kernel streams 2-byte codes, not the base
// column's tuples, so its data-scan term sees the packed layout.
func packedParams(o Observation, h model.Hardware, dg model.Design) model.Params {
	p := params(o, h, dg)
	p.Dataset.TupleSize = model.PackedTupleBytes
	return p
}

// Fit runs the Appendix C verification procedure: Nelder-Mead over
// (alpha, fp) against the scan observations, then over (f_s, beta)
// against the index observations. hw supplies the advertised hardware
// characteristics which the fit augments with the constant factors.
func Fit(obs []Observation, hw model.Hardware, base model.Design) (FitResult, error) {
	var haveScan, haveIndex, havePacked bool
	for _, o := range obs {
		if !math.IsNaN(o.ScanSec) && o.ScanSec > 0 {
			haveScan = true
		}
		if !math.IsNaN(o.IndexSec) && o.IndexSec > 0 {
			haveIndex = true
		}
		if !math.IsNaN(o.PackedScanSec) && o.PackedScanSec > 0 {
			havePacked = true
		}
	}
	if !haveScan && !haveIndex {
		return FitResult{}, errors.New("fit: no usable observations")
	}

	res := FitResult{
		Alpha:        1,
		Pipelining:   hw.Pipelining,
		SortFitScale: 0,
		SortFitExp:   0,
	}

	if haveScan {
		// Fit (alpha, log fp) on the scan model. fp is optimized in log
		// space to keep it positive.
		obj := func(x []float64) float64 {
			alpha, lfp := x[0], x[1]
			if alpha <= 0 {
				return math.Inf(1)
			}
			h := hw
			h.Pipelining = math.Exp(lfp)
			dg := base
			dg.Alpha = alpha
			return normErr(obs,
				func(o Observation) float64 { return model.SharedScan(params(o, h, dg)) },
				func(o Observation) float64 { return o.ScanSec })
		}
		r, err := Minimize(obj, []float64{4, math.Log(hw.Pipelining)}, Options{MaxIter: 4000})
		if err != nil {
			return FitResult{}, err
		}
		res.Alpha = r.X[0]
		res.Pipelining = math.Exp(r.X[1])
		res.ScanErr = r.F
	}

	if havePacked {
		// Fit (packedAlpha, log W) on the packed-scan model with fp frozen
		// from the scan stage. W is optimized in log space to stay
		// positive and bounded to [1, 64]: a "width" below 1 means the
		// SWAR kernel lost to the scalar loop (fit noise), above 64 is
		// more codes per op than a 64-bit word holds.
		h := hw
		h.Pipelining = res.Pipelining
		obj := func(x []float64) float64 {
			pa, lw := x[0], x[1]
			w := math.Exp(lw)
			if pa <= 0 || w < 1 || w > 64 {
				return math.Inf(1)
			}
			dg := base
			dg.Alpha = res.Alpha
			dg.ScanSIMDWidth = w
			dg.PackedAlpha = pa
			return normErr(obs,
				func(o Observation) float64 { return model.SharedScanPacked(packedParams(o, h, dg)) },
				func(o Observation) float64 { return o.PackedScanSec })
		}
		r, err := Minimize(obj, []float64{res.Alpha, math.Log(model.PackedScanWidth)}, Options{MaxIter: 4000})
		if err != nil {
			return FitResult{}, err
		}
		res.PackedAlpha = r.X[0]
		res.ScanWidth = math.Exp(r.X[1])
		res.PackedErr = r.F
	}

	if haveIndex {
		// Fit (log f_s, beta) on the index model with the scan-side
		// constants already frozen.
		h := hw
		h.Pipelining = res.Pipelining
		obj := func(x []float64) float64 {
			lfs, beta := x[0], x[1]
			if beta <= 0.01 || beta >= 1 {
				return math.Inf(1)
			}
			dg := base
			dg.Alpha = res.Alpha
			dg.SortFitScale = math.Exp(lfs)
			dg.SortFitExp = beta
			return normErr(obs,
				func(o Observation) float64 { return model.ConcIndex(params(o, h, dg)) },
				func(o Observation) float64 { return o.IndexSec })
		}
		r, err := Minimize(obj, []float64{math.Log(6e-6), 0.38}, Options{MaxIter: 4000})
		if err != nil {
			return FitResult{}, err
		}
		res.SortFitScale = math.Exp(r.X[0])
		res.SortFitExp = r.X[1]
		res.IndexErr = r.F
	}
	return res, nil
}

// Errors recomputes the normalized least-square errors of a fitted result
// against an observation set (e.g. a held-out sweep), mirroring the
// "S:…, I:…" annotations on Figure 20's panels.
func (r FitResult) Errors(obs []Observation, hw model.Hardware, base model.Design) (scanErr, indexErr float64) {
	h := hw
	h.Pipelining = r.Pipelining
	dg := r.Design(base)
	scanErr = normErr(obs,
		func(o Observation) float64 { return model.SharedScan(params(o, h, dg)) },
		func(o Observation) float64 { return o.ScanSec })
	indexErr = normErr(obs,
		func(o Observation) float64 { return model.ConcIndex(params(o, h, dg)) },
		func(o Observation) float64 { return o.IndexSec })
	return scanErr, indexErr
}
