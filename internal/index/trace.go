package index

import "fastcolumns/internal/storage"

// TraceKind labels a trace event.
type TraceKind int

const (
	// TraceInternal is a visit to an internal node during the descent.
	TraceInternal TraceKind = iota
	// TraceLeaf is a visit to a leaf node during the range walk.
	TraceLeaf
)

// TraceEvent is one node visit during an instrumented probe. The
// simulated-time executor charges hardware costs per event: a random
// memory access per node (hit or miss decided by its cache simulator,
// keyed on NodeID), sequential key reads for KeysRead, and leaf-bandwidth
// streaming for Entries.
type TraceEvent struct {
	Kind TraceKind
	// NodeID is the stable identity of the visited node.
	NodeID int
	// Level is the depth of the node (0 = root) for internal events.
	Level int
	// KeysRead counts separator keys compared at an internal node.
	KeysRead int
	// Entries counts (value, rowID) pairs streamed from a leaf.
	Entries int
}

// Trace runs a range probe emitting one event per node visited and
// returns the number of qualifying entries. The visits are read off the
// two positions lower(lo) and upper(hi): the descent's path to the last
// leaf whose first key is < lo, then every leaf from the one holding
// position lower(lo) to the one holding upper(hi), where a leaf walk
// would stop. Node ids follow the bulk load's numbering: leaves 1..L,
// then each inner level left to right, the root last.
func (t *Tree) Trace(lo, hi storage.Value, visit func(TraceEvent)) int {
	n, b := len(t.keys), t.fanout
	if lo > hi || n == 0 {
		return 0
	}
	p, q := t.lower(lo), t.upper(hi)
	leaf := max(p-1, 0) / b
	// On inner level m the path's node is leaf/b^m, its child taken is
	// leaf/b^(m-1) mod b, and the level's ids start after those of every
	// level below it.
	first, span := 1, 1
	for _, f := range t.firsts {
		first += len(f)
		span *= b
	}
	for m := len(t.firsts); m > 0; m-- {
		visit(TraceEvent{Kind: TraceInternal, NodeID: first + leaf/span, Level: len(t.firsts) - m,
			KeysRead: leaf/(span/b)%b + 1})
		span /= b
		first -= len(t.firsts[m-1])
	}
	if p == n {
		return 0
	}
	for l := p / b; l <= min(q, n-1)/b; l++ {
		visit(TraceEvent{Kind: TraceLeaf, NodeID: l + 1, Level: len(t.firsts),
			Entries: min(q, (l+1)*b) - max(p, l*b)})
	}
	return q - p
}
