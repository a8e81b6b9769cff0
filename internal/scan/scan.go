// Package scan implements the fast sequential scan access path of
// Section 2.2 as block kernels: tight-loop predicated selection over
// dense arrays (an 8-way unrolled kernel standing in for SIMD), a
// strided walk over column-group members, and SWAR evaluation over
// word-packed dictionary codes. Each physical layout is wrapped as a
// block-addressable source (source.go) — a fixed block grid, a kernel
// per block, and an optional pruner (zonemap or column imprints) — and
// internal/coop's pass driver is the one place a source's blocks are
// walked: every shared scan in the engine is a pass over one of these
// sources. reference.go keeps the serial reference and the ablation
// baselines the differential suites and benchmark gates compare
// against.
package scan

import "fastcolumns/internal/storage"

// Predicate is an inclusive range predicate lo <= v <= hi — the paper's
// select operator takes exactly this shape (point queries have lo == hi).
type Predicate struct {
	Lo, Hi storage.Value
}

// Matches reports whether v qualifies.
func (p Predicate) Matches(v storage.Value) bool { return v >= p.Lo && v <= p.Hi }

// Scan selects the rowIDs of qualifying tuples from a contiguous array
// using predication: the output position is written unconditionally and
// the cursor advances by the comparison outcome, avoiding the
// hard-to-predict branch of the naive loop (Section 2.2, "Result
// Writing"). RowIDs are offset by base (the array's position in its
// relation), appended to out (which may be nil) and returned in rowID
// order.
func Scan(data []storage.Value, p Predicate, base int, out []storage.RowID) []storage.RowID {
	// Grow once: predication needs writable slack at the write cursor.
	out = growFor(out, len(data))
	n := len(out)
	buf := out[:cap(out)]
	for i, v := range data {
		buf[n] = storage.RowID(base + i)
		if v >= p.Lo && v <= p.Hi {
			n++
		}
	}
	return buf[:n]
}

// ScanBranching is the naive branch-per-tuple scan, kept as the ablation
// baseline for the predication benchmark.
func ScanBranching(data []storage.Value, p Predicate, out []storage.RowID) []storage.RowID {
	for i, v := range data {
		if v >= p.Lo && v <= p.Hi {
			out = append(out, storage.RowID(i))
		}
	}
	return out
}

// ScanUnrolled is the vectorized stand-in and the raw source's block
// kernel: an 8-lane unrolled predicated loop emitting rowIDs offset by
// base. Go exposes no stable SIMD intrinsics, so lane-parallelism is
// expressed as straight-line code the compiler can schedule; the scan
// stays bandwidth-bound, which is the property the cost model relies on.
func ScanUnrolled(data []storage.Value, p Predicate, base int, out []storage.RowID) []storage.RowID {
	out = growFor(out, len(data))
	n := len(out)
	buf := out[:cap(out)]
	lo, hi := p.Lo, p.Hi
	i := 0
	for ; i+8 <= len(data); i += 8 {
		v0, v1, v2, v3 := data[i], data[i+1], data[i+2], data[i+3]
		v4, v5, v6, v7 := data[i+4], data[i+5], data[i+6], data[i+7]
		buf[n] = storage.RowID(base + i)
		if v0 >= lo && v0 <= hi {
			n++
		}
		buf[n] = storage.RowID(base + i + 1)
		if v1 >= lo && v1 <= hi {
			n++
		}
		buf[n] = storage.RowID(base + i + 2)
		if v2 >= lo && v2 <= hi {
			n++
		}
		buf[n] = storage.RowID(base + i + 3)
		if v3 >= lo && v3 <= hi {
			n++
		}
		buf[n] = storage.RowID(base + i + 4)
		if v4 >= lo && v4 <= hi {
			n++
		}
		buf[n] = storage.RowID(base + i + 5)
		if v5 >= lo && v5 <= hi {
			n++
		}
		buf[n] = storage.RowID(base + i + 6)
		if v6 >= lo && v6 <= hi {
			n++
		}
		buf[n] = storage.RowID(base + i + 7)
		if v7 >= lo && v7 <= hi {
			n++
		}
	}
	for ; i < len(data); i++ {
		buf[n] = storage.RowID(base + i)
		if v := data[i]; v >= lo && v <= hi {
			n++
		}
	}
	return buf[:n]
}

// scanStrided runs the predicated kernel over rows [lo, hi) of a
// column-group member. Every qualifying check drags the full tuple's
// cache lines through the hierarchy — the strided-access penalty
// Figure 15 measures.
func scanStrided(c *storage.Column, p Predicate, lo, hi int, out []storage.RowID) []storage.RowID {
	out = growFor(out, hi-lo)
	n := len(out)
	buf := out[:cap(out)]
	for i := lo; i < hi; i++ {
		buf[n] = storage.RowID(i)
		if v := c.Get(i); v >= p.Lo && v <= p.Hi {
			n++
		}
	}
	return buf[:n]
}

// growFor ensures out has capacity for worst-case growth by n entries
// plus one predication slack slot.
func growFor(out []storage.RowID, n int) []storage.RowID {
	need := len(out) + n + 1
	if cap(out) >= need {
		return out
	}
	// Grow geometrically so block-at-a-time appenders stay amortized O(1).
	newCap := max(need, 2*cap(out))
	grown := make([]storage.RowID, len(out), newCap)
	copy(grown, out)
	return grown
}

// Count returns the number of qualifying tuples without materializing
// rowIDs — the COUNT(*) fast path, which skips result writing entirely
// (the only selectivity-dependent term of the scan's cost).
func Count(data []storage.Value, p Predicate) int {
	n := 0
	for _, v := range data {
		if v >= p.Lo && v <= p.Hi {
			n++
		}
	}
	return n
}
