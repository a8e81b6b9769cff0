package scan

import (
	"fmt"
	"math/rand"
	"testing"
)

func randomPreds(seed int64, q int, domain int32, width int32) []Predicate {
	rng := rand.New(rand.NewSource(seed))
	preds := make([]Predicate, q)
	for i := range preds {
		lo := rng.Int31n(domain)
		preds[i] = Predicate{Lo: lo, Hi: lo + rng.Int31n(width)}
	}
	return preds
}

func TestSharedMatchesIndependentScans(t *testing.T) {
	data := randomData(2, 50000, 1<<16)
	preds := randomPreds(3, 9, 1<<16, 4000)
	for _, block := range []int{0, 100, 4096, 1 << 20} {
		results := Shared(data, preds, block)
		if len(results) != len(preds) {
			t.Fatalf("got %d result sets, want %d", len(results), len(preds))
		}
		for qi, p := range preds {
			want := reference(data, p)
			if !sameRowIDs(results[qi], want) {
				t.Fatalf("block=%d query %d: shared scan disagrees (%d vs %d rows)",
					block, qi, len(results[qi]), len(want))
			}
		}
	}
}

func TestSharedEmptyBatch(t *testing.T) {
	data := randomData(10, 100, 10)
	if got := Shared(data, nil, 0); len(got) != 0 {
		t.Fatalf("empty batch produced %d result sets", len(got))
	}
}

// TestDifferentialSharedStatic pins the ablation baseline (the
// pre-morsel static query partition) to the reference too: a benchmark
// baseline that drifted from correctness would make the morsel
// comparison meaningless.
func TestDifferentialSharedStatic(t *testing.T) {
	for _, c := range corpus() {
		for _, workers := range []int{1, 2, 8} {
			got := SharedStatic(c.data, c.preds, 0, workers)
			for i, p := range c.preds {
				sameIDs(t, fmt.Sprintf("%s/SharedStatic/w%d/pred%d", c.name, workers, i),
					got[i], refFilter(c.data, p))
			}
		}
	}
}
