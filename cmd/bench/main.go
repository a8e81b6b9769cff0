// Command bench regenerates Figure 18: the nine workloads crossing
// {point get, 0.5%, 5%} selectivity with {1, 64, 640} concurrency,
// answered three ways — always the secondary index, always the shared
// scan, and FastColumns with run-time access path selection. No single
// access path wins everywhere; APS must match the best column of each
// workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"testing"
	"text/tabwriter"
	"time"

	"fastcolumns/internal/coop"
	"fastcolumns/internal/exec"
	"fastcolumns/internal/fit"
	"fastcolumns/internal/index"
	"fastcolumns/internal/memsim"
	"fastcolumns/internal/model"
	"fastcolumns/internal/obs"
	"fastcolumns/internal/optimizer"
	rt "fastcolumns/internal/runtime"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/storage"
	"fastcolumns/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	n := flag.Int("n", 2_000_000, "relation size")
	trials := flag.Int("trials", 3, "trials per cell (median)")
	hw1 := flag.Bool("hw1", false, "model the paper's HW1 instead of calibrating the host")
	hwfile := flag.String("hwfile", "", "load a saved host profile instead of calibrating")
	jsonOut := flag.String("json", "", "also write the grid to this file as JSON (see EXPERIMENTS.md)")
	compare := flag.String("compare", "", "compare this run's shared-scan experiments against a committed baseline JSON; exit nonzero on a >10% speedup regression")
	flag.Parse()

	const domain = int32(1 << 24)
	data := workload.Uniform(1, *n, domain)
	col := storage.NewColumn("v", data)
	rel := &exec.Relation{Column: col, Index: index.Build(col, index.DefaultFanout)}
	hw := model.HW1()
	design := model.FittedDesign()
	if *hwfile != "" {
		loaded, err := memsim.LoadProfile(*hwfile)
		if err != nil {
			log.Fatal(err)
		}
		hw = loaded
		fmt.Printf("loaded profile %s: %.1f GB/s scan, %.0f ns LLC miss, fp=%.3f\n",
			*hwfile, hw.ScanBandwidth/1e9, hw.MemAccess*1e9, hw.Pipelining)
	}
	if !*hw1 && *hwfile == "" {
		// The paper calibrates the optimizer to its machine and then fits
		// the model constants with a small number of experiments
		// (Section 3, Appendix C); do the same for this host.
		hw = memsim.Calibrate(0)
		fmt.Printf("calibrated host: %.1f GB/s scan, %.0f ns LLC miss, fp=%.3f\n",
			hw.ScanBandwidth/1e9, hw.MemAccess*1e9, hw.Pipelining)
		obs, err := fit.MeasureObservations(context.Background(), rel, 4, domain,
			[]int{1, 8, 64}, []float64{0.0002, 0.002, 0.02, 0.1}, 2)
		if err != nil {
			log.Fatal(err)
		}
		fr, err := fit.Fit(obs, hw, model.DefaultDesign())
		if err != nil {
			log.Fatal(err)
		}
		hw.Pipelining = fr.Pipelining
		design = fr.Design(model.DefaultDesign())
		fmt.Printf("fitted: alpha=%.2f fp=%.4f fs=%.3g beta=%.3f (scan err %.3f, index err %.3f)\n",
			fr.Alpha, fr.Pipelining, fr.SortFitScale, fr.SortFitExp, fr.ScanErr, fr.IndexErr)
	}
	opt := optimizer.NewWithDesign(hw, design)

	measure := func(path model.Path, preds []scan.Predicate) time.Duration {
		times := make([]time.Duration, 0, *trials)
		for t := 0; t < *trials; t++ {
			res, err := exec.Run(context.Background(), rel, path, preds, exec.Options{})
			if err != nil {
				log.Fatal(err)
			}
			times = append(times, res.Elapsed)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[len(times)/2]
	}

	fmt.Printf("Figure 18: nine workloads, N=%d (wall clock, median of %d)\n", *n, *trials)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "workload\tq\tindex scan\tshared scan\tFastColumns\tAPS chose\tmatched best\t")
	matched := 0
	specs := workload.Nine()
	cells := make([]benchCell, 0, len(specs))
	for _, sp := range specs {
		preds := workload.Batch(42, sp.Q, sp.Selectivity, domain)
		idx := measure(model.PathIndex, preds)
		scn := measure(model.PathScan, preds)

		// The index counts every selectivity exactly.
		d := opt.Decide(rel, preds)
		aps := measure(d.Path, preds)

		best := "index"
		if scn < idx {
			best = "scan"
		}
		ok := d.Path.String() == best
		// Within noise of the best is also a match (the two paths can be
		// close around the break-even point).
		if !ok {
			worse := float64(aps) / float64(min(idx, scn))
			ok = worse < 1.4
		}
		if ok {
			matched++
		}
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%v\t%v\t%v\t\n",
			sp.Name, sp.Q,
			idx.Round(time.Microsecond), scn.Round(time.Microsecond),
			aps.Round(time.Microsecond), d.Path, ok)
		cells = append(cells, benchCell{
			Workload: sp.Name, Q: sp.Q, Selectivity: sp.Selectivity,
			IndexNs: idx.Nanoseconds(), ScanNs: scn.Nanoseconds(), APSNs: aps.Nanoseconds(),
			Chose: d.Path.String(), Ratio: d.Ratio, MatchedBest: ok,
		})
	}
	w.Flush()
	fmt.Printf("APS matched the best access path (or within 1.4x) in %d/%d workloads\n",
		matched, len(specs))

	skew := measureSkew(data, domain, *trials)
	fmt.Printf("skewed batch (1x20%% + 15x0.1%%): static partition %v, morsel dispatch %v (%.2fx), steady-state allocs/batch %.0f\n",
		time.Duration(skew.StaticNs).Round(time.Microsecond),
		time.Duration(skew.MorselNs).Round(time.Microsecond),
		skew.Speedup, skew.SteadyAllocs)

	// The compressed fixture for the packed SWAR experiments: a dictionary-
	// friendly domain on the same relation size.
	const domainC = int32(1 << 15)
	dataC := workload.Uniform(3, *n, domainC)
	colC := storage.NewColumn("vc", dataC)
	ccC, err := storage.Compress(colC)
	if err != nil {
		log.Fatal(err)
	}
	if !*hw1 && *hwfile == "" {
		// Calibrate the packed-scan constants (Appendix D's W and the
		// packed alpha) on the host, the same way the scan and index
		// constants were fitted above.
		relC := &exec.Relation{Column: colC, Compressed: ccC, Index: index.Build(colC, index.DefaultFanout)}
		obsC, err := fit.MeasureObservations(context.Background(), relC, 4, domainC,
			[]int{1, 8, 64}, []float64{0.002, 0.02, 0.1}, 2)
		if err != nil {
			log.Fatal(err)
		}
		frC, err := fit.Fit(obsC, hw, model.DefaultDesign())
		if err != nil {
			log.Fatal(err)
		}
		if frC.ScanWidth > 0 {
			design.ScanSIMDWidth = frC.ScanWidth
			design.PackedAlpha = frC.PackedAlpha
			fmt.Printf("packed fit: W=%.2f packed alpha=%.2f (packed err %.3f)\n",
				frC.ScanWidth, frC.PackedAlpha, frC.PackedErr)
		}
	}
	comp := measureCompressed(ccC, domainC, *trials, hw, design)
	for _, e := range comp.Experiments {
		fmt.Printf("compressed %s (q=%d): scalar codes %v, SWAR packed %v (%.2fx), steady-state allocs/batch %.0f\n",
			e.Name, e.Q,
			time.Duration(e.ScalarNs).Round(time.Microsecond),
			time.Duration(e.SWARNs).Round(time.Microsecond),
			e.Speedup, e.SteadyAllocs)
	}
	fmt.Printf("packed-scan drift: global ratio %.2f, max drift %.3f (threshold %.3f), stale=%v\n",
		comp.Drift.GlobalRatio, comp.Drift.MaxDrift, comp.Drift.Threshold, comp.Drift.Stale)

	// The schema-v5 load section: open-loop sweeps over the serve path,
	// locating the saturation knee per query mix.
	ld := measureLoad(*n)
	printLoad(ld)

	// The schema-v6 coop section: cooperative vs next-window-only tails
	// under the straggler mix at 0.9x of the baseline knee.
	cp := measureCoop()
	printCoop(cp)

	out := benchOutput{
		Schema: "fastcolumns/bench_aps/v7",
		N:      *n, Trials: *trials,
		Hardware: hw, Design: design,
		Cells: cells, MatchedBest: matched, TotalCells: len(specs),
		Skew:       skew,
		Compressed: comp,
		Load:       ld,
		Coop:       cp,
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if *compare != "" {
		if err := compareBaseline(*compare, out); err != nil {
			log.Fatal(err)
		}
		if err := loadGate(out.Load); err != nil {
			log.Fatal(err)
		}
		if err := coopGate(out.Coop); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("no regression against %s; load knee bracketed with shed engaged past it; cooperative p99 beats next-window by 10%% at the straggler rung\n", *compare)
	}
}

// measureCompressed runs the packed SWAR scan experiments over the
// dictionary-compressed column: a Figure 17-style uniform batch and the
// skewed batch, each answered by the scalar code kernel (the pre-SWAR
// baseline) and the pooled SWAR morsel path. Each measured SWAR batch
// also feeds the drift accumulator with the packed cost model's
// prediction, so the run's JSON carries a staleness verdict for the
// newly fitted Appendix D constants.
func measureCompressed(cc *storage.CompressedColumn, domain int32, trials int,
	hw model.Hardware, design model.Design) compressedResult {
	n := cc.Len()
	d := int64(domain)

	fig17 := workload.Batch(17, 16, 0.002, domain)
	const heavySel, lightSel = 0.2, 0.001
	skewPreds := make([]scan.Predicate, 0, 16)
	skewPreds = append(skewPreds, scan.Predicate{Lo: 0, Hi: storage.Value(int64(heavySel*float64(d)) - 1)})
	w := int64(lightSel * float64(d))
	for i := 0; i < 15; i++ {
		lo := int64(i) * (d / 16)
		skewPreds = append(skewPreds, scan.Predicate{Lo: storage.Value(lo), Hi: storage.Value(lo + w - 1)})
	}

	pool := rt.NewPool(rt.Default().Workers(), nil)
	defer pool.Close()
	arena := rt.NewArena(0, nil)
	drift := obs.NewDrift(0)

	res := compressedResult{Domain: domain}
	for _, ex := range []struct {
		name  string
		preds []scan.Predicate
	}{
		{"fig17_uniform", fig17},
		{"skewed", skewPreds},
	} {
		preds := ex.preds
		// Selectivity of each range under the uniform value distribution;
		// sized hints keep the pooled path from growing buffers mid-scan.
		sels := make([]float64, len(preds))
		hints := make([]int, len(preds))
		var meanSel float64
		for i, p := range preds {
			sels[i] = float64(int64(p.Hi)-int64(p.Lo)+1) / float64(d)
			hints[i] = int(sels[i]*float64(n)) + 1
			meanSel += sels[i]
		}
		meanSel /= float64(len(preds))
		predicted := model.SharedScanPacked(model.Params{
			Workload: model.Workload{Selectivities: sels},
			Dataset:  model.Dataset{N: float64(n), TupleSize: model.PackedTupleBytes},
			Hardware: hw,
			Design:   design,
		})

		median := func(run func()) int64 {
			times := make([]time.Duration, 0, trials)
			for t := 0; t < trials; t++ {
				start := time.Now()
				run()
				times = append(times, time.Since(start))
			}
			sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
			return times[len(times)/2].Nanoseconds()
		}

		scalarNs := median(func() {
			_ = scan.SharedCompressedScalar(cc, preds, 0)
		})
		src := scan.NewPacked(cc, 0, nil)
		batch := func() {
			start := time.Now()
			r, err := coop.Run(context.Background(), pool, arena, src, preds, hints)
			if err != nil {
				log.Fatal(err)
			}
			r.Release()
			drift.Record("scan(swar)", meanSel, predicted, time.Since(start).Seconds())
		}
		for i := 0; i < 16; i++ {
			batch() // warm the pools to the batch's peak demand
		}
		swarNs := median(batch)
		allocs := testing.AllocsPerRun(20, batch)

		res.Experiments = append(res.Experiments, compressedExperiment{
			Name: ex.name, Q: len(preds),
			ScalarNs: scalarNs, SWARNs: swarNs,
			Speedup:      float64(scalarNs) / float64(swarNs),
			SteadyAllocs: allocs,
		})
	}
	res.Drift = drift.Report()
	return res
}

// Noise ceilings for the speedup gates. A committed baseline is one
// draw from a noisy distribution; comparing a fresh run against the
// raw draw lets a lucky baseline ratchet the bar above what the
// experiment reliably reproduces (and CI re-measures at a smaller N
// than the committed run, shifting the distribution again). Each
// baseline ratio is therefore capped at the experiment's ceiling
// before the tolerance is applied, so the gate pins the invariant the
// experiment exists to pin, not the baseline's luck:
//   - the skewed-batch experiment sits at parity by design (morsel
//     dispatch pulls ahead only on skews heavier than the committed
//     1x20%+15x0.1% batch), so its ceiling is 1.0 and its tolerance is
//     wider — it catches morsel dispatch becoming materially slower
//     than the static partition, which a scheduling regression does at
//     the 0.5-0.7x scale, not the +-15% scale of cross-N timing noise;
//   - the SWAR experiments reliably reproduce >=2.2x over the scalar
//     kernel across run sizes; losing the bit-parallel advantage
//     altogether lands near 1x, far below the capped bar.
const (
	tolSpeedup  = 0.9
	skewCeiling = 1.0
	skewTol     = 0.8
	swarCeiling = 2.2
)

// compareBaseline fails when any shared-scan experiment's speedup fell
// below tolerance against the committed baseline's (capped at its
// noise ceiling — see above). Speedup ratios — not absolute times —
// are compared, so the gate is portable across hosts.
func compareBaseline(path string, cur benchOutput) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchOutput
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if bar := minf(base.Skew.Speedup, skewCeiling); base.Skew.Speedup > 0 && cur.Skew.Speedup < skewTol*bar {
		return fmt.Errorf("skewed-batch morsel speedup regressed: %.2fx vs baseline %.2fx (bar %.2fx)",
			cur.Skew.Speedup, base.Skew.Speedup, skewTol*bar)
	}
	baseByName := make(map[string]compressedExperiment, len(base.Compressed.Experiments))
	for _, e := range base.Compressed.Experiments {
		baseByName[e.Name] = e
	}
	for _, e := range cur.Compressed.Experiments {
		b, ok := baseByName[e.Name]
		if !ok || b.Speedup <= 0 {
			continue // baseline predates the experiment (schema v2)
		}
		if bar := minf(b.Speedup, swarCeiling); e.Speedup < tolSpeedup*bar {
			return fmt.Errorf("compressed %s SWAR speedup regressed: %.2fx vs baseline %.2fx (bar %.2fx)",
				e.Name, e.Speedup, b.Speedup, tolSpeedup*bar)
		}
	}
	return loadCompare(base.Load, cur.Load)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// measureSkew runs the morsel-runtime tentpole experiment: a batch of
// sixteen queries where one selects ~20% of the domain and fifteen
// select ~0.1% each. The static query partition (one worker straggles on
// the heavy query) is compared against morsel dispatch on a persistent
// pool with pooled result arenas, and the steady-state allocation count
// of the pooled path is measured with testing.AllocsPerRun — the
// tentpole's contract is that it reaches zero once the pools are warm.
func measureSkew(data []storage.Value, domain int32, trials int) skewResult {
	const heavySel, lightSel = 0.2, 0.001
	d := int64(domain)
	preds := make([]scan.Predicate, 0, 16)
	preds = append(preds, scan.Predicate{Lo: 0, Hi: storage.Value(int64(heavySel*float64(d)) - 1)})
	w := int64(lightSel * float64(d))
	for i := 0; i < 15; i++ {
		lo := int64(i) * (d / 16)
		preds = append(preds, scan.Predicate{Lo: storage.Value(lo), Hi: storage.Value(lo + w - 1)})
	}
	hints := make([]int, len(preds))
	for i, p := range preds {
		frac := float64(int64(p.Hi)-int64(p.Lo)+1) / float64(d)
		hints[i] = int(frac*float64(len(data))) + 1
	}

	workers := rt.Default().Workers()
	median := func(run func()) int64 {
		times := make([]time.Duration, 0, trials)
		for t := 0; t < trials; t++ {
			start := time.Now()
			run()
			times = append(times, time.Since(start))
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[len(times)/2].Nanoseconds()
	}

	staticNs := median(func() {
		_ = scan.SharedStatic(data, preds, 0, workers)
	})

	pool := rt.NewPool(workers, nil)
	defer pool.Close()
	arena := rt.NewArena(0, nil)
	src := scan.NewRaw(data, 0, nil)
	batch := func() {
		res, err := coop.Run(context.Background(), pool, arena, src, preds, hints)
		if err != nil {
			log.Fatal(err)
		}
		res.Release()
	}
	// Warm until the arena's buffer rotation converges: every pooled
	// buffer must have grown to the batch's peak demand before the
	// steady state is allocation-free.
	for i := 0; i < 16; i++ {
		batch()
	}
	morselNs := median(batch)
	allocs := testing.AllocsPerRun(20, batch)

	return skewResult{
		Q: len(preds), HeavySel: heavySel, LightSel: lightSel, Workers: workers,
		StaticNs: staticNs, MorselNs: morselNs,
		Speedup:      float64(staticNs) / float64(morselNs),
		SteadyAllocs: allocs,
	}
}

// skewResult is the tentpole experiment in the JSON output: static
// query partition vs morsel dispatch on the skewed batch, plus the
// pooled path's steady-state allocation count.
type skewResult struct {
	Q            int     `json:"q"`
	HeavySel     float64 `json:"heavy_selectivity"`
	LightSel     float64 `json:"light_selectivity"`
	Workers      int     `json:"workers"`
	StaticNs     int64   `json:"static_ns"`
	MorselNs     int64   `json:"morsel_ns"`
	Speedup      float64 `json:"speedup"`
	SteadyAllocs float64 `json:"steady_state_allocs_per_batch"`
}

// benchCell is one workload cell of the Figure 18 grid in the JSON
// output (schema fastcolumns/bench_aps/v2; documented in EXPERIMENTS.md).
type benchCell struct {
	Workload    string  `json:"workload"`
	Q           int     `json:"q"`
	Selectivity float64 `json:"selectivity"`
	IndexNs     int64   `json:"index_ns"`
	ScanNs      int64   `json:"scan_ns"`
	APSNs       int64   `json:"aps_ns"`
	Chose       string  `json:"chose"`
	Ratio       float64 `json:"ratio"`
	MatchedBest bool    `json:"matched_best"`
}

// compressedExperiment is one packed-scan comparison: the scalar code
// kernel vs the pooled SWAR path on the same batch.
type compressedExperiment struct {
	Name         string  `json:"name"`
	Q            int     `json:"q"`
	ScalarNs     int64   `json:"scalar_ns"`
	SWARNs       int64   `json:"swar_ns"`
	Speedup      float64 `json:"speedup"`
	SteadyAllocs float64 `json:"steady_state_allocs_per_batch"`
}

// compressedResult is the schema-v3 compressed section: the experiment
// rows plus the drift report the packed cost model accumulated over the
// measured batches.
type compressedResult struct {
	Domain      int32                  `json:"domain"`
	Experiments []compressedExperiment `json:"experiments"`
	Drift       obs.DriftReport        `json:"drift"`
}

// benchOutput is the -json document: the full grid plus the hardware
// profile and design constants the optimizer ran with, so a stored run
// is reproducible and comparable across machines.
type benchOutput struct {
	Schema      string           `json:"schema"`
	N           int              `json:"n"`
	Trials      int              `json:"trials"`
	Hardware    model.Hardware   `json:"hardware"`
	Design      model.Design     `json:"design"`
	Cells       []benchCell      `json:"cells"`
	MatchedBest int              `json:"matched_best"`
	TotalCells  int              `json:"total_cells"`
	Skew        skewResult       `json:"skew"`
	Compressed  compressedResult `json:"compressed"`
	// The schema-v4 regret section (the estimate-error ablation) was
	// retired in v7, when indexed decisions began counting selectivity
	// exactly; older documents still carry it and parse unchanged.
	// Load is the schema-v5 addition: open-loop latency-vs-offered-load
	// sweeps over the serve path, per query mix, with the saturation
	// knee located on a capacity-relative rate ladder.
	Load loadResult `json:"load"`
	// Coop is the schema-v6 addition: cooperative shared-scan tails
	// versus next-window-only batching under the straggler mix at 0.9x
	// of the baseline server's saturation knee.
	Coop coopResult `json:"coop"`
}
