package model

import "testing"

func coopParams(sel float64) Params {
	return Params{
		Workload: Workload{Selectivities: []float64{sel}},
		Dataset:  Dataset{N: 1e8, TupleSize: 4},
		Hardware: HW1(),
		Design:   DefaultDesign(),
	}
}

func TestAttachWinsEarlyCursorLargeWindow(t *testing.T) {
	// Pass barely started, few co-riders, fat batching window: the wrap
	// prefix is tiny and waiting costs a whole window plus a full pass.
	p := coopParams(0.001)
	st := PassState{FracDone: 0.05, Live: 4, LiveSel: 0.004, Pending: 0, Window: 2e-3}
	attach, ac, wc := ShouldAttach(p, st)
	if !attach {
		t.Fatalf("expected attach to win: attach=%v wait=%v", ac, wc)
	}
	if ac <= 0 || wc <= 0 {
		t.Fatalf("costs must be positive: attach=%v wait=%v", ac, wc)
	}
}

func TestWaitWinsLateCursorCrowdedPass(t *testing.T) {
	// Pass nearly done and crowded: attaching shares almost nothing,
	// pays a near-full single-query wrap, and rides a pass whose q·PE
	// term is bloated by many live queries. Next window is almost free.
	p := coopParams(0.001)
	st := PassState{FracDone: 0.95, Live: 256, LiveSel: 2.0, Pending: 0, Window: 0}
	attach, ac, wc := ShouldAttach(p, st)
	if attach {
		t.Fatalf("expected wait to win: attach=%v wait=%v", ac, wc)
	}
}

func TestAttachCostGrowsWithLiveSet(t *testing.T) {
	// A more crowded pass makes the shared remainder's q·PE term fatter:
	// at a fixed cursor, attaching to a busier pass must not be cheaper.
	p := coopParams(0.01)
	prev := -1.0
	for _, live := range []int{0, 4, 32, 128} {
		st := PassState{FracDone: 0.5, Live: live, LiveSel: 0.01 * float64(live)}
		cost := AttachCost(p, st)
		if cost < prev {
			t.Fatalf("AttachCost decreased at live=%d: %v < %v", live, cost, prev)
		}
		prev = cost
	}
}

func TestWaitCostGrowsWithWindowAndPending(t *testing.T) {
	p := coopParams(0.01)
	base := WaitCost(p, PassState{})
	if w := WaitCost(p, PassState{Window: 1e-3}); w <= base {
		t.Fatalf("window should add to wait cost: %v <= %v", w, base)
	}
	if w := WaitCost(p, PassState{Pending: 64}); w <= base {
		t.Fatalf("pending queries should add to wait cost: %v <= %v", w, base)
	}
}
