// Package arenaescape is the fixture for the arenaescape analyzer:
// views into pooled arena buffers (the IDs / RowIDs slices of the
// Buf / Results wrappers) must not outlive the batch. The
// wrapper type names match internal/runtime's on purpose — the analyzer
// recognizes the view selectors by name.
package arenaescape

// Buf mirrors internal/runtime.Buf.
type Buf struct{ IDs []uint32 }

// Results mirrors internal/runtime.Results.
type Results struct{ RowIDs [][]uint32 }

type holder struct{ view []uint32 }

type pair struct{ a, b []uint32 }

var global [][]uint32

// --- true positives ---

// returnView hands the pooled backing memory to the caller without
// declaring the transfer.
func returnView(r *Results) [][]uint32 {
	return r.RowIDs // want "returned to the caller"
}

// stash parks a view in caller-visible memory: once the batch is
// released the field silently aliases the next batch's data.
func stash(h *holder, b *Buf) {
	h.view = b.IDs // want "caller-visible memory"
}

// publish stores a view in a package variable.
func publish(r *Results) {
	global = r.RowIDs // want "package variable global"
}

// launderAttempt threads the view through locals; taint follows the
// aliases to the return.
func launderAttempt(r *Results) [][]uint32 {
	tmp := r.RowIDs
	view := tmp
	return view // want "returned to the caller"
}

// wrap smuggles the view out inside a composite literal.
func wrap(b *Buf) pair {
	return pair{a: b.IDs} // want "returned to the caller"
}

// --- tricky true negatives ---

// returnOwned legitimately transfers the batch to its caller.
//
//fclint:owns — the caller releases the batch
func returnOwned(r *Results) [][]uint32 {
	return r.RowIDs
}

// copyOut escapes a copy, not the view.
func copyOut(b *Buf) []uint32 {
	out := make([]uint32, len(b.IDs))
	copy(out, b.IDs)
	return out
}

// summarize derives scalars from the view; len() and an indexed element
// launder the taint away.
func summarize(b *Buf) (int, uint32) {
	n := len(b.IDs)
	var first uint32
	if n > 0 {
		first = b.IDs[0]
	}
	return n, first
}

// localOnly keeps the view inside the function; only the derived count
// leaves.
func localOnly(r *Results) int {
	ids := r.RowIDs
	total := 0
	for i := 0; i < len(ids); i++ {
		total += len(ids[i])
	}
	return total
}

// localHolder taints a local struct without letting the view out: a
// store under a local root is not an escape.
func localHolder(b *Buf) int {
	var c holder
	c.view = b.IDs
	return len(c.view)
}
