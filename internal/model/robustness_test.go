package model

import (
	"math"
	"testing"
)

func TestErrorMarginLargeAwayFromBoundary(t *testing.T) {
	// A point get is deep in index territory: the estimate must be off by
	// orders of magnitude to flip the decision.
	p := testParams(1, 1e-7)
	m := ErrorMargin(p)
	if m < 100 {
		t.Fatalf("point-get margin = %v, want a large factor", m)
	}
	// A 30% query is deep in scan territory.
	p2 := testParams(1, 0.3)
	if m2 := ErrorMargin(p2); m2 < 10 {
		t.Fatalf("wide-query margin = %v, want a large factor", m2)
	}
}

func TestErrorMarginTightAtBoundary(t *testing.T) {
	d := Dataset{N: 1e8, TupleSize: 4}
	s, ok := Crossover(4, d, HW1(), DefaultDesign())
	if !ok {
		t.Fatal("no crossover")
	}
	// Just off the break-even point: a small estimation error flips it.
	p := Params{Workload: Uniform(4, s*1.05), Dataset: d, Hardware: HW1(), Design: DefaultDesign()}
	m := ErrorMargin(p)
	if m > 1.3 {
		t.Fatalf("boundary margin = %v, want close to 1", m)
	}
	if m < 1 {
		t.Fatalf("margin below 1: %v", m)
	}
}

func TestWrongChoicePenalty(t *testing.T) {
	// Penalties are >= 1 and shrink towards 1 near the boundary.
	deep := WrongChoicePenalty(testParams(1, 1e-6))
	if deep < 2 {
		t.Fatalf("deep-territory penalty = %v, want substantial", deep)
	}
	d := Dataset{N: 1e8, TupleSize: 4}
	s, _ := Crossover(4, d, HW1(), DefaultDesign())
	near := WrongChoicePenalty(Params{
		Workload: Uniform(4, s*1.01), Dataset: d, Hardware: HW1(), Design: DefaultDesign()})
	if near < 1 || near > 1.2 {
		t.Fatalf("boundary penalty = %v, want ~1", near)
	}
	if near >= deep {
		t.Fatal("penalty should grow away from the boundary")
	}
}

func TestErrorMarginConsistentWithPenalty(t *testing.T) {
	// The two views agree qualitatively: tight margins imply cheap
	// mistakes (the paper's error-propagation argument).
	d := Dataset{N: 1e8, TupleSize: 4}
	s, _ := Crossover(8, d, HW1(), DefaultDesign())
	boundary := Params{Workload: Uniform(8, s), Dataset: d, Hardware: HW1(), Design: DefaultDesign()}
	deep := testParams(8, 1e-6)
	if ErrorMargin(boundary) > ErrorMargin(deep) {
		t.Fatal("boundary margin should be tighter than deep-territory margin")
	}
	if WrongChoicePenalty(boundary) > WrongChoicePenalty(deep) {
		t.Fatal("boundary penalty should be smaller than deep-territory penalty")
	}
}

func TestErrorMarginHandlesExtremes(t *testing.T) {
	// Full-selectivity scan decisions may be unflippable: margin is +Inf.
	p := testParams(600, 1)
	m := ErrorMargin(p)
	if m < 1 && !math.IsInf(m, 1) {
		t.Fatalf("margin = %v", m)
	}
}

func TestErrorMarginUnflippableIsInf(t *testing.T) {
	// An estimate nine-plus orders of magnitude from the break-even point
	// exhausts the [1e-9, 1e9] search range before flipping: the margin
	// must report +Inf, not a garbage finite factor. (Histograms really do
	// produce such estimates for point gets on huge domains.)
	p := testParams(1, 1e-14)
	if Choose(p) != PathIndex {
		t.Fatal("fixture is supposed to pick the index")
	}
	if m := ErrorMargin(p); !math.IsInf(m, 1) {
		t.Fatalf("1e-14 point-get margin = %v, want +Inf", m)
	}
}

func TestErrorMarginZeroSelectivityBatch(t *testing.T) {
	// Zero-selectivity estimates are a fixed point of multiplicative
	// scaling (0 * m == 0): no error factor changes the workload, so the
	// decision can never flip and the margin must be +Inf rather than
	// looping or returning a bogus finite factor.
	p := testParams(8, 0)
	if m := ErrorMargin(p); !math.IsInf(m, 1) {
		t.Fatalf("zero-selectivity margin = %v, want +Inf", m)
	}
}

func TestWrongChoicePenaltyZeroSelectivity(t *testing.T) {
	// With all-zero selectivities both costs are finite (data scan vs
	// tree traversals) and the penalty is well-defined and >= 1.
	p := testParams(8, 0)
	got := WrongChoicePenalty(p)
	if math.IsNaN(got) || got < 1 {
		t.Fatalf("zero-selectivity penalty = %v, want finite >= 1", got)
	}
}

func TestWrongChoicePenaltyNearBreakEven(t *testing.T) {
	// Exactly at the crossover the two paths cost the same: the penalty
	// collapses to ~1 (mistakes are free at the boundary).
	d := Dataset{N: 1e8, TupleSize: 4}
	s, ok := Crossover(4, d, HW1(), DefaultDesign())
	if !ok {
		t.Fatal("no crossover")
	}
	p := Params{Workload: Uniform(4, s), Dataset: d, Hardware: HW1(), Design: DefaultDesign()}
	if got := WrongChoicePenalty(p); got < 1-1e-6 || got > 1.05 {
		t.Fatalf("break-even penalty = %v, want ~1", got)
	}
}
