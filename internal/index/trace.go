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
// returns the number of qualifying entries. It performs the same descent
// and leaf walk as RangeRowIDs without materializing rowIDs.
func (t *Tree) Trace(lo, hi storage.Value, visit func(TraceEvent)) int {
	if lo > hi || t.count == 0 {
		return 0
	}
	n := t.root
	level := 0
	for !n.leaf {
		ci := lowerBound(n.keys, lo)
		visit(TraceEvent{Kind: TraceInternal, NodeID: n.id, Level: level, KeysRead: ci + 1})
		n = n.children[ci]
		level++
	}
	i := lowerBound(n.keys, lo)
	if i == len(n.keys) {
		n = n.next
		i = 0
	}
	total := 0
	for n != nil {
		entries := 0
		done := false
		for ; i < len(n.keys); i++ {
			if n.keys[i] > hi {
				done = true
				break
			}
			entries++
		}
		visit(TraceEvent{Kind: TraceLeaf, NodeID: n.id, Level: level, Entries: entries})
		total += entries
		if done {
			return total
		}
		n = n.next
		i = 0
	}
	return total
}
