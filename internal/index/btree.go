// Package index implements the main-memory optimized B+-tree secondary
// index of Section 2.3: a tree with hardware-tuned fanout whose leaves
// hold (value, rowID) pairs, supporting bulk loading from a column,
// incremental inserts (for delta merges), range probes that emit rowIDs,
// shared multi-query probes across hardware threads, and exact range
// counts from the subtree counts its internal nodes carry.
package index

import (
	"fmt"
	"slices"
	"sort"

	"fastcolumns/internal/storage"
)

// DefaultFanout is the paper's memory-optimized branching factor (b=21,
// found experimentally on its primary server). Disk-era trees used ~250.
const DefaultFanout = 21

type node struct {
	id       int // stable identity for simulation traces
	keys     []storage.Value
	children []*node // internal nodes only
	// counts[i] is the number of entries under children[:i] (internal
	// nodes only; one longer than children). Cumulative, so a descent
	// reads the entries left of the child it takes in one lookup.
	counts []int
	rowIDs []storage.RowID // leaves only: rowIDs[i] belongs to keys[i]
	next   *node           // leaf chain
	leaf   bool
}

// Tree is a secondary B+-tree over one column. It stores a copy of the
// indexed attribute in its leaves together with the positions of the
// values in the base column, so a select can run entirely inside the
// index (Section 2.3, "Selects Using a Secondary Index").
type Tree struct {
	fanout    int
	root      *node
	firstLeaf *node
	height    int // number of levels including the leaf level
	count     int
	nextID    int // next node id for simulation traces
}

// New creates an empty tree with the given fanout (minimum 3;
// DefaultFanout if fanout <= 0).
func New(fanout int) *Tree {
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	if fanout < 3 {
		fanout = 3
	}
	leaf := &node{leaf: true}
	return &Tree{fanout: fanout, root: leaf, firstLeaf: leaf, height: 1, nextID: 1}
}

// Build bulk-loads a tree of the given fanout from a column view: every
// (value, rowID) pair, sorted by value (ties by rowID), packed into
// fanout-full leaves with the internal levels built bottom-up.
func Build(c *storage.Column, fanout int) *Tree {
	n := c.Len()
	keys := make([]storage.Value, n)
	ids := make([]storage.RowID, n)
	for i := 0; i < n; i++ {
		keys[i] = c.Get(i)
		ids[i] = storage.RowID(i)
	}
	sortPairs(keys, ids)
	return buildFromSorted(keys, ids, fanout)
}

// BuildFromSorted bulk-loads from pre-sorted (key, rowID) pairs. The keys
// must be ascending; ties must be ordered by rowID. Unsorted input is
// rejected with an error — a tree built over it would misbehave silently
// on every later probe, which is strictly worse than failing the load.
func BuildFromSorted(keys []storage.Value, ids []storage.RowID, fanout int) (*Tree, error) {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] || (keys[i] == keys[i-1] && ids[i] < ids[i-1]) {
			return nil, fmt.Errorf("index: BuildFromSorted input unsorted at %d", i)
		}
	}
	return buildFromSorted(keys, ids, fanout), nil
}

func buildFromSorted(keys []storage.Value, ids []storage.RowID, fanout int) *Tree {
	t := New(fanout)
	n := len(keys)
	if n == 0 {
		return t
	}
	// Pack leaves.
	var leaves []*node
	for lo := 0; lo < n; lo += t.fanout {
		hi := min(lo+t.fanout, n)
		leaf := &node{
			id:     t.newID(),
			leaf:   true,
			keys:   append([]storage.Value(nil), keys[lo:hi]...),
			rowIDs: append([]storage.RowID(nil), ids[lo:hi]...),
		}
		if len(leaves) > 0 {
			leaves[len(leaves)-1].next = leaf
		}
		leaves = append(leaves, leaf)
	}
	t.firstLeaf = leaves[0]
	t.count = n
	// Build internal levels bottom-up. An internal node's key i is the
	// smallest key reachable under child i+1 (the usual separator rule).
	level := leaves
	t.height = 1
	for len(level) > 1 {
		var parents []*node
		for lo := 0; lo < len(level); lo += t.fanout {
			hi := min(lo+t.fanout, len(level))
			p := &node{id: t.newID(), children: append([]*node(nil), level[lo:hi]...)}
			for _, child := range p.children[1:] {
				p.keys = append(p.keys, smallestKey(child))
			}
			p.counts = make([]int, 1, len(p.children)+1)
			for i, child := range p.children {
				p.counts = append(p.counts, p.counts[i]+child.size())
			}
			parents = append(parents, p)
		}
		level = parents
		t.height++
	}
	t.root = level[0]
	return t
}

// newID hands out the next stable node id.
func (t *Tree) newID() int {
	id := t.nextID
	t.nextID++
	return id
}

// size returns the number of entries under n.
func (n *node) size() int {
	if n.leaf {
		return len(n.keys)
	}
	return n.counts[len(n.counts)-1]
}

func smallestKey(n *node) storage.Value {
	for !n.leaf {
		n = n.children[0]
	}
	return n.keys[0]
}

// sortPairs sorts keys ascending with ids permuted alongside, ties broken
// by id so equal-key runs emit rowIDs in ascending order.
func sortPairs(keys []storage.Value, ids []storage.RowID) {
	s := pairSlice{keys: keys, ids: ids}
	sort.Sort(s)
}

type pairSlice struct {
	keys []storage.Value
	ids  []storage.RowID
}

func (p pairSlice) Len() int { return len(p.keys) }
func (p pairSlice) Less(i, j int) bool {
	return p.keys[i] < p.keys[j] || (p.keys[i] == p.keys[j] && p.ids[i] < p.ids[j])
}
func (p pairSlice) Swap(i, j int) {
	p.keys[i], p.keys[j] = p.keys[j], p.keys[i]
	p.ids[i], p.ids[j] = p.ids[j], p.ids[i]
}

// Len returns the number of indexed entries.
func (t *Tree) Len() int { return t.count }

// Height returns the number of levels, counting the leaf level.
func (t *Tree) Height() int { return t.height }

// Fanout returns the tree's branching factor b.
func (t *Tree) Fanout() int { return t.fanout }

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int {
	c := 0
	for l := t.firstLeaf; l != nil; l = l.next {
		c++
	}
	return c
}

// Insert adds one (key, rowID) entry, splitting nodes as needed. It is
// how delta merges extend the index without a rebuild.
func (t *Tree) Insert(key storage.Value, id storage.RowID) {
	sepKey, right := t.insert(t.root, key, id)
	if right != nil {
		left := t.root.size()
		t.root = &node{
			id:       t.newID(),
			keys:     []storage.Value{sepKey},
			children: []*node{t.root, right},
			counts:   []int{0, left, left + right.size()},
		}
		t.height++
	}
	t.count++
}

// insert descends, inserts, and returns a separator plus new right
// sibling when the child split.
func (t *Tree) insert(n *node, key storage.Value, id storage.RowID) (storage.Value, *node) {
	if n.leaf {
		// Position: after all equal keys with smaller ids.
		i := sort.Search(len(n.keys), func(i int) bool {
			return n.keys[i] > key || (n.keys[i] == key && n.rowIDs[i] >= id)
		})
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.rowIDs = append(n.rowIDs, 0)
		copy(n.rowIDs[i+1:], n.rowIDs[i:])
		n.rowIDs[i] = id
		if len(n.keys) <= t.fanout {
			return 0, nil
		}
		// Split the leaf.
		mid := len(n.keys) / 2
		right := &node{
			id:     t.newID(),
			leaf:   true,
			keys:   append([]storage.Value(nil), n.keys[mid:]...),
			rowIDs: append([]storage.RowID(nil), n.rowIDs[mid:]...),
			next:   n.next,
		}
		n.keys = n.keys[:mid:mid]
		n.rowIDs = n.rowIDs[:mid:mid]
		n.next = right
		return right.keys[0], right
	}

	ci := upperBound(n.keys, key)
	for i := ci + 1; i < len(n.counts); i++ {
		n.counts[i]++
	}
	sepKey, right := t.insert(n.children[ci], key, id)
	if right == nil {
		return 0, nil
	}
	n.keys = slices.Insert(n.keys, ci, sepKey)
	n.children = slices.Insert(n.children, ci+1, right)
	// The split child's entries now sit under two children.
	n.counts = slices.Insert(n.counts, ci+1, n.counts[ci]+n.children[ci].size())
	if len(n.children) <= t.fanout {
		return 0, nil
	}
	// Split the internal node: middle key moves up, and the right half's
	// cumulative counts restart from zero.
	midKey := len(n.keys) / 2
	up := n.keys[midKey]
	rightNode := &node{
		id:       t.newID(),
		keys:     append([]storage.Value(nil), n.keys[midKey+1:]...),
		children: append([]*node(nil), n.children[midKey+1:]...),
		counts:   append([]int(nil), n.counts[midKey+1:]...),
	}
	for i := range rightNode.counts {
		rightNode.counts[i] -= n.counts[midKey+1]
	}
	n.keys = n.keys[:midKey:midKey]
	n.children = n.children[: midKey+1 : midKey+1]
	n.counts = n.counts[: midKey+2 : midKey+2]
	return up, rightNode
}
