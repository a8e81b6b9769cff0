package stats

import (
	"math"
	"math/rand"
	"testing"

	"fastcolumns/internal/storage"
)

func uniformColumn(seed int64, n int, domain int32) *storage.Column {
	rng := rand.New(rand.NewSource(seed))
	data := make([]storage.Value, n)
	for i := range data {
		data[i] = rng.Int31n(domain)
	}
	return storage.NewColumn("v", data)
}

func trueSelectivity(c *storage.Column, lo, hi storage.Value) float64 {
	count := 0
	for i := 0; i < c.Len(); i++ {
		if v := c.Get(i); v >= lo && v <= hi {
			count++
		}
	}
	return float64(count) / float64(c.Len())
}

func TestHistogramUniformAccuracy(t *testing.T) {
	c := uniformColumn(1, 100000, 1<<20)
	h, err := BuildHistogram(c, 128)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][2]storage.Value{
		{0, 1 << 19},          // ~50%
		{1000, 1000 + 1<<15},  // ~3%
		{0, 1<<20 - 1},        // 100%
		{1 << 19, 1<<19 + 99}, // tiny
	}
	for _, r := range cases {
		got := h.EstimateRange(r[0], r[1])
		want := trueSelectivity(c, r[0], r[1])
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("range %v: estimate %.4f, true %.4f", r, got, want)
		}
	}
}

func TestHistogramSkewedData(t *testing.T) {
	// Zipf-ish data: equi-depth buckets must keep the heavy values from
	// swamping the estimate.
	rng := rand.New(rand.NewSource(2))
	z := rand.NewZipf(rng, 1.3, 8, 1<<16)
	data := make([]storage.Value, 50000)
	for i := range data {
		data[i] = storage.Value(z.Uint64())
	}
	c := storage.NewColumn("v", data)
	h, err := BuildHistogram(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]storage.Value{{0, 0}, {0, 10}, {100, 1 << 15}} {
		got := h.EstimateRange(r[0], r[1])
		want := trueSelectivity(c, r[0], r[1])
		if math.Abs(got-want) > 0.06 {
			t.Fatalf("skewed range %v: estimate %.4f, true %.4f", r, got, want)
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	c := storage.NewColumn("v", []storage.Value{5, 5, 5, 5})
	h, err := BuildHistogram(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.EstimateRange(5, 5); math.Abs(got-1) > 1e-9 {
		t.Fatalf("constant column point estimate = %v, want 1", got)
	}
	if got := h.EstimateRange(6, 10); got != 0 {
		t.Fatalf("above-domain estimate = %v, want 0", got)
	}
	if got := h.EstimateRange(0, 4); got != 0 {
		t.Fatalf("below-domain estimate = %v, want 0", got)
	}
	if got := h.EstimateRange(10, 5); got != 0 {
		t.Fatalf("inverted range estimate = %v, want 0", got)
	}
}

func TestHistogramEmptyColumn(t *testing.T) {
	if _, err := BuildHistogram(storage.NewColumn("v", nil), 4); err == nil {
		t.Fatal("empty column accepted")
	}
}

func TestHistogramEstimatesInRange(t *testing.T) {
	c := uniformColumn(3, 10000, 1000)
	h, _ := BuildHistogram(c, 32)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		lo := storage.Value(rng.Int31n(2000) - 500)
		hi := lo + storage.Value(rng.Int31n(3000))
		got := h.EstimateRange(lo, hi)
		if got < 0 || got > 1 || math.IsNaN(got) {
			t.Fatalf("estimate out of [0,1]: %v for [%d,%d]", got, lo, hi)
		}
	}
}

func TestHistogramBucketCountClamped(t *testing.T) {
	c := storage.NewColumn("v", []storage.Value{1, 2, 3})
	h, err := BuildHistogram(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	if h.Buckets() > 3 {
		t.Fatalf("more buckets (%d) than tuples", h.Buckets())
	}
}

func TestEstimateRangeOpenBelow(t *testing.T) {
	// Regression: lo == MinInt32 (an open-below predicate like "v < x")
	// must not wrap lo-1 around to MaxInt32 and estimate zero.
	c := uniformColumn(5, 50000, 1<<20)
	h, err := BuildHistogram(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	got := h.EstimateRange(math.MinInt32, 1<<19)
	want := trueSelectivity(c, math.MinInt32, 1<<19)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("open-below estimate %.4f, true %.4f", got, want)
	}
	// Full int32 range estimates ~100%.
	if got := h.EstimateRange(math.MinInt32, math.MaxInt32); got < 0.99 {
		t.Fatalf("full-range estimate = %v", got)
	}
}
