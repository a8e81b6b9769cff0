package model

import "math"

// This file extends the Section 5 shared-scan model with the
// cooperative-scan attach-vs-wait term: a query arriving while a shared
// pass is in flight can either attach at the pass cursor (share the
// remainder with the live queries, then have its missed prefix served
// by a wrap-around continuation) or wait for the next batching window
// and share a fresh full pass with whatever has queued up. Both sides
// are priced with the paper's own Equation 5 pieces, so the choice
// inherits the fitted hardware profile.

// PassState is the observable state of an in-flight cooperative pass
// plus the scheduler context the wait side needs (internal/coop's
// Progress maps onto the first four fields).
type PassState struct {
	// FracDone is the fraction of the pass's blocks already claimed
	// (cursor c over the circular schedule), in [0, 1].
	FracDone float64
	// Live is the number of unfinished queries riding the pass; LiveSel
	// is the sum of their selectivity estimates.
	Live    int
	LiveSel float64
	// Pending is the number of queries already queued for the next
	// batching window on this column.
	Pending int
	// Window is the scheduler's batching window in seconds — the
	// expected extra queueing delay the waiting query pays before the
	// next pass even starts.
	Window float64
}

func clamp01(x float64) float64 {
	if math.IsNaN(x) || x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// scaled returns a copy of d covering frac of its tuples, floored at
// one tuple so the Equation 1/2/3 terms stay well-defined.
func scaled(d Dataset, frac float64) Dataset {
	n := d.N * frac
	if n < 1 {
		n = 1
	}
	return Dataset{N: n, TupleSize: d.TupleSize}
}

// AttachCost prices attaching p.Workload's queries at cursor c: the
// remainder of the pass is a shared scan over (1-c)·N tuples evaluated
// by the live queries plus the attachers, and each attacher's missed
// prefix is then served by a wrap-around continuation — costed as a
// single-query scan over c·N per attaching query, the conservative
// no-other-sharers view of the wrap.
func AttachCost(p Params, st PassState) float64 {
	c := clamp01(st.FracDone)
	live := st.Live
	if live < 0 {
		live = 0
	}
	liveSel := clamp01(st.LiveSel / math.Max(float64(live), 1))
	joint := Workload{Selectivities: append(Uniform(live, liveSel).Selectivities,
		p.Workload.Selectivities...)}
	remainder := SharedScan(Params{
		Workload: joint,
		Dataset:  scaled(p.Dataset, 1-c),
		Hardware: p.Hardware,
		Design:   p.Design,
	})
	var wrap float64
	if c > 0 {
		prefix := scaled(p.Dataset, c)
		for _, s := range p.Workload.Selectivities {
			wrap += SingleQueryScan(s, prefix, p.Hardware, p.Design)
		}
	}
	return remainder + wrap
}

// WaitCost prices the next-window alternative: sit out the remaining
// batching window, then share a full fresh pass with the Pending
// queries already queued (each assumed to match the arriving queries'
// mean selectivity — the scheduler knows how many are queued, not what
// they select).
func WaitCost(p Params, st PassState) float64 {
	q := p.Workload.Q()
	mean := clamp01(p.Workload.TotalSelectivity() / math.Max(float64(q), 1))
	pending := st.Pending
	if pending < 0 {
		pending = 0
	}
	next := SharedScan(Params{
		Workload: Uniform(pending+q, mean),
		Dataset:  p.Dataset,
		Hardware: p.Hardware,
		Design:   p.Design,
	})
	return math.Max(st.Window, 0) + next
}

// ShouldAttach reports whether attaching at the cursor beats waiting
// for the next window, and returns both costs so callers can record the
// predicted saving.
func ShouldAttach(p Params, st PassState) (attach bool, attachCost, waitCost float64) {
	attachCost = AttachCost(p, st)
	waitCost = WaitCost(p, st)
	return attachCost <= waitCost, attachCost, waitCost
}
