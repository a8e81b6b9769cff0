package obs

import (
	"math"
	"testing"
)

func TestBandOf(t *testing.T) {
	cases := []struct {
		sel  float64
		band int
	}{
		{0, 0}, {5e-5, 0}, {1e-4, 1}, {5e-4, 1}, {1e-3, 2},
		{5e-3, 2}, {0.05, 3}, {0.5, 4}, {1, 4},
	}
	for _, c := range cases {
		if got := BandOf(c.sel); got != c.band {
			t.Errorf("BandOf(%v) = %d, want %d", c.sel, got, c.band)
		}
	}
	for b := 0; b < NumSelBands; b++ {
		lo, hi := BandBounds(b)
		if lo >= hi {
			t.Errorf("band %d bounds inverted: [%v, %v)", b, lo, hi)
		}
		if BandOf(lo) != b {
			t.Errorf("BandOf(band %d's lo %v) = %d", b, lo, BandOf(lo))
		}
	}
}

// TestDriftUniformFactorIsNotDrift: a model that is wrong by the same
// constant factor everywhere is merely uncalibrated in absolute terms —
// the APS ratio cancels a factor every path shares, so no shape drift may
// be reported.
func TestDriftUniformFactorIsNotDrift(t *testing.T) {
	d := NewDrift(0)
	for i, sel := range []float64{1e-5, 5e-4, 5e-3, 0.05, 0.5} {
		for j := 0; j < 5; j++ {
			pred := float64(1+i) * 1e-3
			d.Record("scan", sel, pred, pred*3.7) // same 3.7x everywhere
		}
	}
	rep := d.Report()
	if len(rep.Cells) != 5 {
		t.Fatalf("cells = %d, want 5", len(rep.Cells))
	}
	if math.Abs(rep.GlobalRatio-3.7) > 1e-9 {
		t.Fatalf("global ratio = %v, want 3.7", rep.GlobalRatio)
	}
	if rep.MaxDrift > 1e-9 {
		t.Fatalf("uniform factor reported drift %v", rep.MaxDrift)
	}
	if rep.Stale {
		t.Fatal("uniform factor flagged stale")
	}
}

// TestDriftShapeErrorIsDrift: a selectivity-dependent error — the
// signature of stale fitted constants — must push MaxDrift past the
// threshold and flag staleness.
func TestDriftShapeErrorIsDrift(t *testing.T) {
	d := NewDrift(0)
	// Low-selectivity cells run at 2x predicted; the high-selectivity
	// cell at 8x — a 4x spread in shape, far beyond the 2x threshold.
	for j := 0; j < 5; j++ {
		d.Record("scan", 1e-5, 1e-3, 2e-3)
		d.Record("scan", 5e-3, 1e-3, 2e-3)
		d.Record("scan", 0.5, 1e-3, 8e-3)
	}
	rep := d.Report()
	if !rep.Stale {
		t.Fatalf("shape error not flagged stale: %+v", rep)
	}
	if rep.MaxDrift <= rep.Threshold {
		t.Fatalf("MaxDrift = %v, want > threshold %v", rep.MaxDrift, rep.Threshold)
	}
}

// TestDriftScaleSeesOneCellOffset: a workload that only ever runs one
// path populates one cell, which is its own global reference, so shape
// drift is 0 however far off the model is. The scale verdict must still
// see a 541x offset, and neither verdict may fire on two cells near 1x.
func TestDriftScaleSeesOneCellOffset(t *testing.T) {
	one := NewDrift(0)
	for j := 0; j < 30; j++ {
		one.Record("scan", 5e-3, 1e-3, 541e-3)
	}
	rep := one.Report()
	if len(rep.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(rep.Cells))
	}
	if rep.Stale {
		t.Fatalf("one cell flagged shape-stale: MaxDrift %v", rep.MaxDrift)
	}
	if !rep.ScaleStale {
		t.Fatalf("541x offset not scale-stale: %+v", rep)
	}
	if want := math.Log(541); math.Abs(rep.ScaleDrift-want) > 1e-9 {
		t.Fatalf("ScaleDrift = %v, want ln 541 = %v", rep.ScaleDrift, want)
	}

	two := NewDrift(0)
	for j := 0; j < 5; j++ {
		two.Record("scan", 5e-3, 1e-3, 1.1e-3)
		two.Record("index", 5e-3, 1e-3, 0.9e-3)
	}
	rep = two.Report()
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(rep.Cells))
	}
	if rep.Stale || rep.ScaleStale {
		t.Fatalf("two cells near 1x flagged stale (shape %v, scale %v): %+v", rep.Stale, rep.ScaleStale, rep)
	}
}

// TestDriftMinSamples: cells below the evidence floor contribute their
// row but not the verdict.
func TestDriftMinSamples(t *testing.T) {
	d := NewDrift(0)
	for j := 0; j < 10; j++ {
		d.Record("scan", 1e-5, 1e-3, 2e-3)
	}
	// One wild outlier batch, below DefaultDriftMinSamples.
	d.Record("scan", 0.5, 1e-3, 1e-1)
	rep := d.Report()
	if rep.Stale {
		t.Fatalf("single outlier batch flagged the host stale: %+v", rep)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d, want 2 (outlier cell still reported)", len(rep.Cells))
	}
}

func TestDriftSkipsUnusableObservations(t *testing.T) {
	d := NewDrift(0)
	d.Record("scan", 0.1, 0, 1e-3)          // no prediction (forced path)
	d.Record("scan", 0.1, -1, 1e-3)         // negative prediction
	d.Record("scan", 0.1, 1e-3, 0)          // no measurement
	d.Record("scan", 0.1, math.NaN(), 1e-3) // NaN prediction
	d.Record("scan", 0.1, 1e-3, math.NaN()) // NaN measurement
	if rep := d.Report(); len(rep.Cells) != 0 {
		t.Fatalf("unusable observations created cells: %+v", rep.Cells)
	}
}

func TestDriftCellsSortedAndKeyedByPath(t *testing.T) {
	d := NewDrift(0)
	d.Record("index", 0.5, 1e-3, 2e-3)
	d.Record("scan", 1e-5, 1e-3, 2e-3)
	d.Record("index", 1e-5, 1e-3, 2e-3)
	rep := d.Report()
	if len(rep.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(rep.Cells))
	}
	for i := 1; i < len(rep.Cells); i++ {
		a, b := rep.Cells[i-1], rep.Cells[i]
		if a.Path > b.Path || (a.Path == b.Path && a.Band >= b.Band) {
			t.Fatalf("cells not sorted by (path, band): %+v", rep.Cells)
		}
	}
}
