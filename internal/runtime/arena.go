package runtime

import (
	"sync"

	"fastcolumns/internal/obs"
	"fastcolumns/internal/storage"
)

// DefaultArenaRetain is the largest rowID capacity (in entries) a
// buffer may keep when returned to the arena; bigger backing arrays
// are dropped for the garbage collector so one pathological batch
// cannot pin its peak footprint forever. 4M rowIDs is 32 MB — roughly
// one full-selectivity result over the benchmark relation.
const DefaultArenaRetain = 4 << 20

// Buf is a recyclable rowID buffer. It is a pointer-stable wrapper so
// round-tripping through the sync.Pool never allocates (putting a bare
// slice would box it on every Put). Callers append to IDs and hand the
// Buf back via Arena.PutBuf — or simply drop it, which is safe and
// merely costs the arena a miss later.
type Buf struct {
	IDs []storage.RowID
}

// Buffer pools are segregated into power-of-two size classes: class c
// holds buffers whose capacity is at least arenaMinCap<<c. Checkouts
// draw from the class that covers the hint and returns round a
// buffer's capacity *down*, so a pooled buffer can always serve its
// class without growing. Without classes, one mixed pool lets a small
// per-morsel cell buffer answer a large assembly checkout, which then
// re-grows it — with a skewed batch (one 20% query among 0.1% ones)
// that keeps a slow trickle of allocations going for hundreds of
// batches before every buffer has grown to the peak demand.
const (
	arenaMinCap  = 64
	arenaClasses = 26
)

// classFor returns the smallest class whose promised capacity
// (arenaMinCap<<c) covers n, clamped to the last class.
func classFor(n int) int {
	c := 0
	for size := arenaMinCap; size < n && c < arenaClasses-1; size <<= 1 {
		c++
	}
	return c
}

// classDown returns the largest class whose promised capacity a buffer
// of capacity n can serve, or -1 when n is below the smallest class.
func classDown(n int) int {
	if n < arenaMinCap {
		return -1
	}
	c := 0
	for size := arenaMinCap; size<<1 <= n && c < arenaClasses-1; size <<= 1 {
		c++
	}
	return c
}

// Arena recycles the query path's result buffers: per-query rowID
// slices (Buf, pooled per size class) and per-batch result sets
// (Results). A nil *Arena is valid and falls back to plain allocation,
// so cold paths and tests need no setup.
type Arena struct {
	maxRetain int
	bufs      [arenaClasses]sync.Pool
	sets      sync.Pool

	hits    *obs.Counter
	misses  *obs.Counter
	returns *obs.Counter
}

// NewArena returns an arena that retains buffers up to maxRetain
// rowIDs of capacity (DefaultArenaRetain when <= 0). reg may be nil;
// when set, the arena exports runtime.arena.hits / runtime.arena.misses
// counters (a miss is a checkout that had to grow or allocate) and
// runtime.arena.returns (rowID buffers accepted back by PutBuf — the
// put-side signal; under the race detector sync.Pool sheds puts at
// random, so tests that must observe a release watch this counter, not
// a subsequent checkout hit).
func NewArena(maxRetain int, reg *obs.Registry) *Arena {
	if maxRetain <= 0 {
		maxRetain = DefaultArenaRetain
	}
	a := &Arena{maxRetain: maxRetain}
	if reg != nil {
		a.hits = reg.Counter("runtime.arena.hits")
		a.misses = reg.Counter("runtime.arena.misses")
		a.returns = reg.Counter("runtime.arena.returns")
	}
	return a
}

// GetBuf checks out a buffer with len 0 and capacity at least capHint.
// The hint is sized from the optimizer's selectivity estimate so the
// scan kernels stop re-growing mid-scan; it is a hint, not a bound —
// the kernels still grow the slice if the estimate was low. A miss
// allocates the full class capacity, so the buffer serves its whole
// class when it comes back around.
func (a *Arena) GetBuf(capHint int) *Buf {
	if a == nil {
		return &Buf{IDs: make([]storage.RowID, 0, capHint)}
	}
	class := classFor(capHint)
	if v := a.bufs[class].Get(); v != nil {
		b := v.(*Buf)
		if cap(b.IDs) >= capHint { // always true below the clamped last class
			cadd(a.hits, 1)
			b.IDs = b.IDs[:0]
			return b
		}
		cadd(a.misses, 1)
		b.IDs = make([]storage.RowID, 0, capHint)
		return b
	}
	cadd(a.misses, 1)
	size := arenaMinCap << class
	if size < capHint {
		size = capHint
	}
	return &Buf{IDs: make([]storage.RowID, 0, size)}
}

// PutBuf returns a buffer to its size class. Buffers over the retain
// cap are dropped entirely so one pathological batch cannot pin its
// peak footprint. nil receivers and nil buffers are no-ops.
func (a *Arena) PutBuf(b *Buf) {
	if a == nil || b == nil {
		return
	}
	if cap(b.IDs) > a.maxRetain {
		b.IDs = nil
		return
	}
	class := classDown(cap(b.IDs))
	if class < 0 {
		return
	}
	cadd(a.returns, 1)
	a.bufs[class].Put(b)
}

// Results is one batch's checked-out result set: RowIDs[i] aliases the
// arena buffer holding query i's matches. Ownership transfers to the
// caller at checkout; calling Release hands every buffer (and the
// Results itself) back to the arena. Releasing is optional — results
// that escape to user code are simply collected by the GC — but the
// steady-state zero-allocation contract only holds for released
// batches.
type Results struct {
	RowIDs [][]storage.RowID

	bufs  []*Buf
	arena *Arena
}

// GetResults checks out a result set for q queries with all slots
// empty.
func (a *Arena) GetResults(q int) *Results {
	var r *Results
	if a != nil {
		if v := a.sets.Get(); v != nil {
			r = v.(*Results)
		}
	}
	if r == nil {
		r = &Results{}
	}
	r.arena = a
	if cap(r.RowIDs) < q {
		r.RowIDs = make([][]storage.RowID, q)
		r.bufs = make([]*Buf, q)
	} else {
		r.RowIDs = r.RowIDs[:q]
		r.bufs = r.bufs[:q]
		for i := range r.RowIDs {
			r.RowIDs[i] = nil
			r.bufs[i] = nil
		}
	}
	return r
}

// Attach installs b as query i's result buffer; RowIDs[i] aliases its
// current contents. The Results takes ownership of b.
func (r *Results) Attach(i int, b *Buf) {
	r.bufs[i] = b
	r.RowIDs[i] = b.IDs
}

// Release returns every attached buffer and the Results itself to the
// arena. The RowIDs slices must not be used afterwards — their backing
// arrays will be handed to future batches. Safe on nil and after a
// previous Release (it empties itself).
func (r *Results) Release() {
	if r == nil {
		return
	}
	a := r.arena
	for i := range r.bufs {
		if r.bufs[i] != nil {
			a.PutBuf(r.bufs[i])
			r.bufs[i] = nil
		}
		r.RowIDs[i] = nil
	}
	if a != nil {
		r.RowIDs = r.RowIDs[:0]
		r.bufs = r.bufs[:0]
		r.arena = nil
		a.sets.Put(r)
	}
}
