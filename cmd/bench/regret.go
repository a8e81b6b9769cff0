package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"fastcolumns/internal/adaptive"
	"fastcolumns/internal/exec"
	"fastcolumns/internal/model"
	"fastcolumns/internal/optimizer"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/stats"
	"fastcolumns/internal/workload"
)

// The regret grid's robust-mode policy: a decision whose flip margin is
// below the assumed misestimation factor cannot be trusted, so it is
// re-decided by minimax regret over that factor. Threshold and bound
// match: the policy hedges exactly the decisions the injected error
// could flip.
const (
	regretMarginThreshold = 4
	regretErrorBound      = 4
)

// regretErrFactors are the injected selectivity misestimation factors:
// 4x underestimates (the expensive direction: a scan-best workload gets
// probed), honest estimates, and 4x overestimates.
var regretErrFactors = []float64{0.25, 1, 4}

// regretLadder adds near-crossover workloads to the regret grid beyond
// the Figure 18 nine: single-query cells in the selectivity band where a
// 4x misestimate genuinely flips the APS decision. The nine sit far from
// the boundary (that is Figure 18's point), so without the ladder the
// ablation would mostly compare modes on decisions error cannot move.
var regretLadder = []struct {
	name string
	q    int
	sel  float64
}{
	{"xover/1%", 1, 0.01},
	{"xover/3%", 1, 0.03},
	{"xover/4%", 1, 0.04},
}

// regretCell is one (workload, error factor, mode) row of the schema-v4
// regret grid: which path the mode chose under the injected
// misestimation, what that path measured, and the regret against the
// oracle (the faster of the two measured static paths).
type regretCell struct {
	Workload    string  `json:"workload"`
	Q           int     `json:"q"`
	Selectivity float64 `json:"selectivity"`
	// ErrFactor scales the optimizer's selectivity estimates; 0 marks the
	// adaptive rows, which never consult an estimate.
	ErrFactor float64 `json:"err_factor"`
	Mode      string  `json:"mode"`
	Chose     string  `json:"chose"`
	Hedged    bool    `json:"hedged,omitempty"`
	Ns        int64   `json:"ns"`
	OracleNs  int64   `json:"oracle_ns"`
	Regret    float64 `json:"regret"`
	// ModelRegret scores the same choice against the cost model's own
	// truth (costs at the unscaled selectivities): chosen-path model cost
	// over best-path model cost. It isolates decision quality from how
	// well the constants fit the bench host, so the benchgate compares it
	// portably; 0 for the adaptive rows, which the model does not cost.
	ModelRegret float64 `json:"model_regret,omitempty"`
}

// regretSummary aggregates one (mode, error factor) column of the grid.
type regretSummary struct {
	Mode            string  `json:"mode"`
	ErrFactor       float64 `json:"err_factor"`
	MeanRegret      float64 `json:"mean_regret"`
	MaxRegret       float64 `json:"max_regret"`
	MeanModelRegret float64 `json:"mean_model_regret,omitempty"`
	MaxModelRegret  float64 `json:"max_model_regret,omitempty"`
}

// regretResult is the schema-v4 estimate-error ablation: how much each
// decision mode loses to an oracle when selectivity estimates are wrong
// by a controlled factor.
//
//   - aps-fixed:  APS with the paper's committed constants.
//   - aps-refit:  APS with this run's (host-refitted when calibrated)
//     constants.
//   - aps-robust: aps-refit plus the minimax-regret hedge on thin-margin
//     decisions.
//   - adaptive:   the Smooth-Scan path, which ignores estimates
//     entirely.
type regretResult struct {
	ErrFactors      []float64       `json:"err_factors"`
	MarginThreshold float64         `json:"margin_threshold"`
	ErrorBound      float64         `json:"error_bound"`
	Cells           []regretCell    `json:"cells"`
	Summary         []regretSummary `json:"summary"`
}

// measureRegretGrid builds the schema-v4 ablation from the Figure 18
// grid's already-measured path times: each mode's decisions under each
// injected error factor select one of the measured numbers, so the grid
// isolates decision quality from measurement noise — every mode is
// scored against the same pair of medians.
func measureRegretGrid(rel *exec.Relation, hist *stats.Histogram, hw model.Hardware,
	design model.Design, gridCells []benchCell, domain int32, trials int) regretResult {
	res := regretResult{
		ErrFactors:      regretErrFactors,
		MarginThreshold: regretMarginThreshold,
		ErrorBound:      regretErrorBound,
	}

	// The ladder cells are regret-only; measure their two static paths
	// the same way the Figure 18 loop measured its cells.
	cells := gridCells
	for _, l := range regretLadder {
		preds := workload.Batch(42, l.q, l.sel, domain)
		idxNs := medianNs(trials, func() {
			if _, err := exec.Run(context.Background(), rel, model.PathIndex, preds, exec.Options{}); err != nil {
				log.Fatal(err)
			}
		})
		scanNs := medianNs(trials, func() {
			if _, err := exec.Run(context.Background(), rel, model.PathScan, preds, exec.Options{}); err != nil {
				log.Fatal(err)
			}
		})
		cells = append(cells, benchCell{
			Workload: l.name, Q: l.q, Selectivity: l.sel,
			IndexNs: idxNs, ScanNs: scanNs,
		})
	}

	fixed := optimizer.NewWithDesign(hw, model.FittedDesign())
	refit := optimizer.NewWithDesign(hw, design)
	robust := optimizer.NewWithDesign(hw, design)
	modes := []struct {
		name string
		opt  *optimizer.Optimizer
	}{
		{"aps-fixed", fixed},
		{"aps-refit", refit},
		{"aps-robust", robust},
	}

	for _, f := range regretErrFactors {
		fixed.SetRobust(optimizer.RobustPolicy{EstimateError: f})
		refit.SetRobust(optimizer.RobustPolicy{EstimateError: f})
		robust.SetRobust(optimizer.RobustPolicy{
			MarginThreshold: regretMarginThreshold,
			ErrorBound:      regretErrorBound,
			EstimateError:   f,
		})
		for _, c := range cells {
			preds := workload.Batch(42, c.Q, c.Selectivity, domain)
			oracle := min(c.IndexNs, c.ScanNs)
			scanTrue, idxTrue := modelTruth(rel, hist, hw, design, preds)
			for _, m := range modes {
				d := m.opt.Decide(rel, hist, preds)
				ns, mc := c.ScanNs, scanTrue
				if d.Path == model.PathIndex {
					ns, mc = c.IndexNs, idxTrue
				}
				res.Cells = append(res.Cells, regretCell{
					Workload: c.Workload, Q: c.Q, Selectivity: c.Selectivity,
					ErrFactor: f, Mode: m.name,
					Chose: d.Path.String(), Hedged: d.Hedged,
					Ns: ns, OracleNs: oracle,
					Regret:      float64(ns) / float64(oracle),
					ModelRegret: mc / min(scanTrue, idxTrue),
				})
			}
		}
	}

	// The adaptive path never consults an estimate, so it is measured
	// once per workload and recorded under err_factor 0.
	budget := adaptive.BudgetFromModel(rel.Column.Len(), float64(rel.Column.TupleSize()), hw, design)
	for _, c := range cells {
		preds := workload.Batch(42, c.Q, c.Selectivity, domain)
		oracle := min(c.IndexNs, c.ScanNs)
		ns := medianNs(trials, func() {
			for _, p := range preds {
				if _, err := adaptive.SelectContext(context.Background(), rel, p, budget, exec.Options{}); err != nil {
					log.Fatal(err)
				}
			}
		})
		res.Cells = append(res.Cells, regretCell{
			Workload: c.Workload, Q: c.Q, Selectivity: c.Selectivity,
			ErrFactor: 0, Mode: "adaptive",
			Chose: "adaptive", Ns: ns, OracleNs: oracle,
			Regret: float64(ns) / float64(oracle),
		})
	}

	res.Summary = summarizeRegret(res.Cells)
	return res
}

// modelTruth returns the cost model's scan and index predictions for
// the batch at the histogram's unscaled selectivity estimates — the
// model's own ground truth, against which ModelRegret scores a decision
// made under injected estimate error.
func modelTruth(rel *exec.Relation, hist *stats.Histogram, hw model.Hardware,
	design model.Design, preds []scan.Predicate) (scanCost, idxCost float64) {
	sels := make([]float64, len(preds))
	for i, p := range preds {
		sels[i] = hist.EstimateRange(p.Lo, p.Hi)
	}
	p := model.Params{
		Workload: model.Workload{Selectivities: sels},
		Dataset:  model.Dataset{N: float64(rel.Column.Len()), TupleSize: float64(rel.Column.TupleSize())},
		Hardware: hw,
		Design:   design,
	}
	return model.SharedScan(p), model.ConcIndex(p)
}

// summarizeRegret folds the cells into per-(mode, factor) means.
func summarizeRegret(cells []regretCell) []regretSummary {
	type key struct {
		mode string
		f    float64
	}
	agg := make(map[key]*regretSummary)
	order := make([]key, 0, 8)
	counts := make(map[key]int)
	for _, c := range cells {
		k := key{c.Mode, c.ErrFactor}
		s, ok := agg[k]
		if !ok {
			s = &regretSummary{Mode: c.Mode, ErrFactor: c.ErrFactor}
			agg[k] = s
			order = append(order, k)
		}
		s.MeanRegret += c.Regret
		s.MaxRegret = max(s.MaxRegret, c.Regret)
		s.MeanModelRegret += c.ModelRegret
		s.MaxModelRegret = max(s.MaxModelRegret, c.ModelRegret)
		counts[k]++
	}
	out := make([]regretSummary, 0, len(order))
	for _, k := range order {
		s := agg[k]
		s.MeanRegret /= float64(counts[k])
		s.MeanModelRegret /= float64(counts[k])
		out = append(out, *s)
	}
	return out
}

// regretGate enforces the robustness contract the grid exists to prove:
// under injected selectivity underestimates (the catastrophic direction
// — a scan-best workload gets probed and the index path's cost explodes
// with the real result size), the robust mode's mean model regret must
// beat fixed-APS by the guard ratio. Model regret — decision quality
// against the cost model's own truth — drives the gate rather than wall
// clock, so it holds on any host regardless of how well the HW1
// constants happen to fit the bench machine; the committed grid carries
// the measured regret alongside for the calibrated story.
func regretGate(r regretResult) error {
	const guard = 1.15
	fixed := meanModelRegretUnderEst(r, "aps-fixed")
	robust := meanModelRegretUnderEst(r, "aps-robust")
	if fixed == 0 || robust == 0 {
		return fmt.Errorf("regret gate: grid has no underestimate cells (fixed %.3f, robust %.3f)", fixed, robust)
	}
	if robust*guard > fixed {
		return fmt.Errorf("regret gate: robust mode's underestimate regret %.3f does not beat fixed-APS %.3f by the %.2fx guard",
			robust, fixed, guard)
	}
	return nil
}

// meanModelRegretUnderEst averages a mode's model regret over every cell
// whose injected error factor is below 1 (selectivity underestimates).
func meanModelRegretUnderEst(r regretResult, mode string) float64 {
	var sum float64
	var n int
	for _, c := range r.Cells {
		if c.Mode != mode || c.ErrFactor <= 0 || c.ErrFactor >= 1 {
			continue
		}
		sum += c.ModelRegret
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// medianNs times run trials times and returns the median in nanoseconds.
func medianNs(trials int, run func()) int64 {
	times := make([]time.Duration, 0, trials)
	for t := 0; t < trials; t++ {
		start := time.Now()
		run()
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2].Nanoseconds()
}
