// Package index implements the main-memory optimized B+-tree secondary
// index of Section 2.3 as an immutable flat tree. The leaf level is two
// sorted arrays, keys and rowIDs, cut implicitly into fanout-b leaves;
// each inner level is one array of its nodes' first keys. A key's
// position in the leaf arrays is its rank, so one root-to-leaf descent
// finds it, a range count is the difference of two positions, and a
// range probe is one contiguous copy. Delta merges build a new tree and
// leave the old one untouched for the readers still holding it.
package index

import (
	"sort"

	"fastcolumns/internal/storage"
)

// DefaultFanout is the paper's memory-optimized branching factor (b=21,
// found experimentally on its primary server). Disk-era trees used ~250.
const DefaultFanout = 21

// Tree is a secondary B+-tree over one column. It stores a copy of the
// indexed attribute in its leaves together with the positions of the
// values in the base column, so a select can run entirely inside the
// index (Section 2.3, "Selects Using a Secondary Index"). A Tree is
// never modified once built, so any number of readers may share it.
type Tree struct {
	fanout int
	keys   []storage.Value // every indexed key, ascending
	ids    []storage.RowID // ids[i] belongs to keys[i]; equal keys in rowID order
	// firsts[k] holds the first key of each node on level k (0 = the
	// leaves), for every level below the root. The separators of node j
	// on level k+1 are firsts[k][j*fanout+1 : (j+1)*fanout].
	firsts [][]storage.Value
}

// Build bulk-loads a tree of the given fanout (minimum 3; DefaultFanout
// if fanout <= 0) from a column view: every (value, rowID) pair, sorted
// by value (ties by rowID), packed into fanout-full leaves with the inner
// levels built bottom-up.
func Build(c *storage.Column, fanout int) *Tree {
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	keys, ids := sortedPairs(c, 0)
	return build(keys, ids, max(fanout, 3))
}

// sortedPairs returns the (value, rowID) pairs of c's rows from on,
// sorted by value, ties by rowID.
func sortedPairs(c *storage.Column, from int) ([]storage.Value, []storage.RowID) {
	keys := make([]storage.Value, c.Len()-from)
	ids := make([]storage.RowID, len(keys))
	for i := range keys {
		keys[i] = c.Get(from + i)
		ids[i] = storage.RowID(from + i)
	}
	sortPairs(keys, ids)
	return keys, ids
}

// build lays the inner levels over sorted leaf arrays: each level takes
// every fanout-th first key of the level below until one node remains.
func build(keys []storage.Value, ids []storage.RowID, fanout int) *Tree {
	t := &Tree{fanout: fanout, keys: keys, ids: ids}
	for level := keys; len(level) > fanout; level = t.firsts[len(t.firsts)-1] {
		firsts := make([]storage.Value, 0, (len(level)+fanout-1)/fanout)
		for i := 0; i < len(level); i += fanout {
			firsts = append(firsts, level[i])
		}
		t.firsts = append(t.firsts, firsts)
	}
	return t
}

// Merge returns a new tree over c, a column whose first Len() rows the
// receiver indexes: the rows c appends past them, as a delta merge does,
// join the index. Their rowIDs exceed every indexed one, so on equal
// keys the indexed entries go first. The receiver is left untouched. The
// leaf runs between the new entries' insertion points move as block
// copies.
func (t *Tree) Merge(c *storage.Column) *Tree {
	keys, ids := sortedPairs(c, len(t.keys))
	n := len(t.keys) + len(keys)
	mk := make([]storage.Value, 0, n)
	mi := make([]storage.RowID, 0, n)
	from := 0
	for i, k := range keys {
		to := t.upper(k)
		mk = append(append(mk, t.keys[from:to]...), k)
		mi = append(append(mi, t.ids[from:to]...), ids[i])
		from = to
	}
	mk = append(mk, t.keys[from:]...)
	mi = append(mi, t.ids[from:]...)
	return build(mk, mi, t.fanout)
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
func (t *Tree) Len() int { return len(t.keys) }

// Height returns the number of levels, counting the leaf level.
func (t *Tree) Height() int { return len(t.firsts) + 1 }

// Fanout returns the tree's branching factor b.
func (t *Tree) Fanout() int { return t.fanout }

// Leaves returns the number of leaf nodes; an empty tree is one empty
// leaf.
func (t *Tree) Leaves() int { return max((len(t.keys)+t.fanout-1)/t.fanout, 1) }

// node returns the entries of node j on a level array: its slice of
// fanout elements, shorter at the level's end.
func (t *Tree) node(level []storage.Value, j int) []storage.Value {
	return level[j*t.fanout : min((j+1)*t.fanout, len(level))]
}

// lower returns the number of entries whose key is < x, which is also
// the position of x's first entry. It is the package's one descent: at
// each inner level it searches the separators of the one node it takes,
// choosing the last child whose first key is < x (the first child if
// none), and finishes inside one leaf.
func (t *Tree) lower(x storage.Value) int {
	j := 0
	for k := len(t.firsts) - 1; k >= 0; k-- {
		j = j*t.fanout + lowerBound(t.node(t.firsts[k], j)[1:], x)
	}
	return j*t.fanout + lowerBound(t.node(t.keys, j), x)
}
