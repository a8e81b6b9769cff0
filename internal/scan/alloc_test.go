package scan

import (
	"testing"

	"fastcolumns/internal/race"
	"fastcolumns/internal/storage"
)

// TestScanKernelsZeroAlloc pins the steady-state allocation contract of
// the scan hot path: with a warm result buffer of sufficient capacity,
// the predicated kernels and the count fast path allocate nothing per
// call. The shared-scan cost model assumes the kernel is bandwidth-bound;
// a stray allocation per block would put the garbage collector on that
// path and quietly break the model's premise.
func TestScanKernelsZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run without -race")
	}
	data := make([]storage.Value, 4096)
	for i := range data {
		data[i] = storage.Value(i % 997)
	}
	p := Predicate{Lo: 100, Hi: 500}
	// Warm buffer with predication slack for a full-selectivity result.
	buf := make([]storage.RowID, 0, len(data)+1)

	sites := []struct {
		name string
		op   func()
	}{
		{"Scan", func() { buf = Scan(data, p, 0, buf[:0]) }},
		{"ScanUnrolled", func() { buf = ScanUnrolled(data, p, 0, buf[:0]) }},
		{"ScanBranching", func() { buf = ScanBranching(data, p, buf[:0]) }},
		{"Count", func() { _ = Count(data, p) }},
	}
	for _, site := range sites {
		if n := testing.AllocsPerRun(100, site.op); n != 0 {
			t.Errorf("%s allocates %.1f per call with a warm buffer, want 0", site.name, n)
		}
	}
}
