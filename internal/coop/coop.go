// Package coop is the shared-scan pass driver: every shared scan in the
// engine — a plain batch, a cooperative batch — is one pass over a
// Source, and this package is the one place a source's blocks are walked
// ("From Cooperative Scans to Predictive Buffer Management": one scan
// manager owns every pass).
//
// A pass cuts the source's blocks into ranges and the founding batch
// into query chunks, and dispatches the (range × chunk) grid as morsels
// on the runtime pool. Each unit walks its range block by block so
// every predicate visits a cache-resident block before it is evicted,
// appending into a per-(range, query) arena cell that only that unit
// touches; cells concatenate in range order, so results are in rowID
// order by construction. A pass with no attachers is exactly that grid
// — the plain shared scan.
//
// A pass published under a key is attachable: a late query joins every
// range not yet claimed (sharing those blocks with the founders while
// they are resident) and the ranges it missed are re-dispatched as
// wrap-around units once the founders' grid has drained. Its cells slot
// into the same per-range positions, so it too gets rowID order with no
// sort. The invariant the differential and fuzz suites pin: each query
// sees each non-pruned block exactly once — a query enters a range's
// rider list exactly once at admission, and a list is taken exactly
// once, by the unit that claims the range.
package coop

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fastcolumns/internal/faultinject"
	"fastcolumns/internal/obs"
	rt "fastcolumns/internal/runtime"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/storage"
)

// FaultSiteAttach fires at the top of every mid-pass attach attempt, so
// chaos suites can fail, panic, or delay the attach path; error and
// panic faults degrade the query to next-window semantics.
const FaultSiteAttach = "coop.attach"

// DefaultMaxAttach bounds mid-pass attachers per pass: each attacher
// extends the pass with its wrap-around ranges, so an uncapped stream
// of attachers under heavy traffic could keep one pass alive (and its
// founders waiting) indefinitely.
const DefaultMaxAttach = 64

// morselsPerWorker controls unit granularity: the relation is cut into
// about 8 block-ranges per worker, so the work-stealing pool has enough
// units to rebalance a straggling high-selectivity predicate without
// paying per-block dispatch overhead. Each unit still walks its range
// block by block, so cache residency of the shared scan is untouched —
// range size only sets the stealing, attach and cancellation
// granularity.
const morselsPerWorker = 8

// errAborted answers attachers stranded by a pass that panicked.
var errAborted = errors.New("coop: pass aborted")

// Options configures a Manager.
type Options struct {
	// Metrics, when non-nil, receives the coop.* instruments.
	Metrics *obs.Registry
	// BlockHook, when non-nil, runs after each block scan — the
	// deterministic test seam for attaching at exact pass offsets.
	BlockHook func(key string, block int)
}

// Manager publishes in-flight passes per key (one key per
// table+attribute) and admits mid-pass attachers to them. A pass run
// under the empty key is unpublished: nothing can attach to it.
type Manager struct {
	blockHook func(string, int)
	// sought is set once anyone asks for a pass to attach to (Progress
	// or Attach): until then units have nobody to yield to.
	sought atomic.Bool

	passes         *obs.Counter
	attaches       *obs.Counter
	attachRejected *obs.Counter
	wrapBlocks     *obs.Counter
	demandSkipped  *obs.Counter
	cancelDropped  *obs.Counter
	attachSavedNs  *obs.Histogram

	mu   sync.Mutex
	live map[string]*pass
}

// NewManager builds a pass manager.
func NewManager(opt Options) *Manager {
	m := &Manager{blockHook: opt.BlockHook, live: make(map[string]*pass)}
	if opt.Metrics != nil {
		m.passes = opt.Metrics.Counter("coop.passes")
		m.attaches = opt.Metrics.Counter("coop.attach")
		m.attachRejected = opt.Metrics.Counter("coop.attach_rejected")
		m.wrapBlocks = opt.Metrics.Counter("coop.wrap_blocks")
		m.demandSkipped = opt.Metrics.Counter("coop.demand_skipped")
		m.cancelDropped = opt.Metrics.Counter("coop.cancel_dropped")
		m.attachSavedNs = opt.Metrics.Histogram("coop.attach_saved_ns")
	}
	return m
}

// seek records that somebody wants to attach to this manager's passes.
func (m *Manager) seek() {
	if !m.sought.Load() {
		m.sought.Store(true)
	}
}

// Progress is the observable state of an in-flight pass — the inputs
// the attach-vs-wait cost term (model.PassState) needs.
type Progress struct {
	// Rows and Blocks describe the pass's source.
	Rows, Blocks int
	// Claimed counts blocks whose range a unit has claimed — the pass
	// cursor, as a count (Claimed/Blocks is the model's FracDone).
	Claimed int
	// Live is the number of unfinished, uncancelled queries on the pass;
	// LiveSel is the sum of their selectivity estimates.
	Live    int
	LiveSel float64
	// Attached counts mid-pass attachers admitted so far.
	Attached int
}

// Progress reports the in-flight pass on key; ok is false when no
// attachable pass exists.
func (m *Manager) Progress(key string) (Progress, bool) {
	m.seek()
	m.mu.Lock()
	p := m.live[key]
	if p == nil {
		m.mu.Unlock()
		return Progress{}, false
	}
	// The pass lock is taken before the registry lock is dropped, so a
	// pass a caller can see is never recycled under it: retire
	// unpublishes first, then takes the pass lock once more to wait such
	// callers out. (Attach follows the same order.)
	p.mu.Lock()
	m.mu.Unlock()
	defer p.mu.Unlock()
	if p.closed {
		return Progress{}, false
	}
	return Progress{
		Rows:     p.src.Rows(),
		Blocks:   p.nb,
		Claimed:  min(p.claimed*p.rangeBlocks, p.nb),
		Live:     p.live,
		LiveSel:  p.liveSel,
		Attached: len(p.attachers),
	}, true
}

// query is what a unit needs to scan one predicate.
type query struct {
	pred  scan.Predicate // as submitted: what Prune checks
	bound scan.Predicate // src.Bind(pred): what ScanBlock evaluates
	hint  int            // expected result rows, sizes the cells
}

// attacher is one query adopted mid-pass. deliver is called exactly once
// (rowIDs in order, the context's error at a reap, or the pass failure).
type attacher struct {
	query
	sel     float64
	ctx     context.Context
	deliver func([]storage.RowID, error)
	// cells[r] accumulates range r's matches; the unit riding the query
	// over r owns the slot while it scans.
	cells []*rt.Buf

	// remaining counts ranges still to scan; guarded by pass.mu.
	remaining int
	// settled marks the query out of the live set: answered, reaped or
	// stranded, with its one deliver call made or about to be. Written
	// under pass.mu; units also read it lock-free to stop scanning for
	// a query that no longer wants rows.
	settled atomic.Bool
}

// rangeState is one block-range's attach bookkeeping, guarded by pass.mu.
type rangeState struct {
	// open: a unit that has not yet claimed this range exists in the
	// current round, so a query admitted now can still ride it.
	open bool
	// running: the unit carrying this range's riders is scanning.
	running bool
	// joined rides the range's next claim; missed arrived after the
	// claim and is served by a wrap-around unit next round.
	joined, missed []*attacher
}

// pass is one shared scan over a source. It implements runtime.Job:
// morsel i of round 0 is query chunk (i mod nc) over range (i div nc);
// morsel i of a wrap-around round is range wrap[i] for its riders only.
type pass struct {
	m     *Manager
	key   string
	src   Source
	ctx   context.Context // the founders' batch context
	pool  *rt.Pool
	arena *rt.Arena

	nb, rangeBlocks int // source blocks; blocks per range
	nr, nc, chunk   int // ranges × query chunks; founders per chunk
	slack           int
	founders        []query
	cells           []*rt.Buf // founders' cells: [qi*nr + r]
	round           int       // written between dispatches only
	wrap            []int     // this wrap-around round's ranges

	// failed/err carry the first unit-level error across the dispatch
	// barrier: the CAS winner writes err, readers load failed first.
	failed atomic.Bool
	err    error

	mu         sync.Mutex
	ranges     []rangeState
	attachers  []*attacher
	claimed    int // ranges claimed in round 0: the pass cursor
	live       int
	liveSel    float64
	founderSel float64
	closed     bool

	wrapBlocks, skipped atomic.Int64
}

var passPool = sync.Pool{New: func() any { return new(pass) }}

// fail records a unit's error; the first one wins.
func (p *pass) fail(err error) {
	if p.failed.CompareAndSwap(false, true) {
		p.err = err
	}
}

// dead tolerates nil contexts (direct callers may pass none).
func dead(ctx context.Context) bool { return ctx != nil && ctx.Err() != nil }

// newPass checks a pass out and sizes its unit grid for the pool's
// worker count.
func newPass(ctx context.Context, m *Manager, key string, pool *rt.Pool, arena *rt.Arena,
	src Source, preds []scan.Predicate, hints []int) *pass {
	p := passPool.Get().(*pass)
	p.m, p.key, p.src, p.ctx, p.pool, p.arena = m, key, src, ctx, pool, arena
	p.nb, p.slack = src.Blocks(), src.Slack()
	workers, q := pool.Workers(), len(preds)
	p.rangeBlocks = max(p.nb/(morselsPerWorker*workers), 1)
	p.nr = (p.nb + p.rangeBlocks - 1) / p.rangeBlocks
	// With too few ranges to keep the workers busy (small relation,
	// many queries), split the query batch as well.
	p.nc, p.chunk = 1, q
	if q > 1 && p.nr > 0 && p.nr < 2*workers {
		want := min((2*workers+p.nr-1)/p.nr, q)
		p.chunk = (q + want - 1) / want
		p.nc = (q + p.chunk - 1) / p.chunk
	}
	rows := float64(max(src.Rows(), 1))
	for i, pr := range preds {
		f := query{pred: pr, bound: src.Bind(pr)}
		if i < len(hints) {
			f.hint = hints[i]
			p.founderSel += float64(f.hint) / rows
		}
		p.founders = append(p.founders, f)
	}
	p.live, p.liveSel = q, p.founderSel
	p.cells = resize(p.cells, p.nr*q)
	p.ranges = resize(p.ranges, p.nr)
	for r := range p.ranges {
		p.ranges[r].open = true
	}
	return p
}

// resize returns s with length n and every element zeroed, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// RunMorsel evaluates one unit: claim the range (taking the queries
// riding it), then walk its blocks so every query of the unit visits a
// cache-resident block before it is evicted. Distinct units write
// disjoint cells, so the scan itself takes no lock; the dispatch
// barrier publishes founders' cells to the assembling goroutine and
// pass.mu publishes riders'.
func (p *pass) RunMorsel(i int) {
	if p.failed.Load() {
		return
	}
	r, qlo, qhi := 0, 0, 0
	claims := true
	if p.round == 0 {
		r = i / p.nc
		qlo = (i % p.nc) * p.chunk
		qhi = min(qlo+p.chunk, len(p.founders))
		claims = qlo == 0
	} else {
		r = p.wrap[i]
	}
	if dead(p.ctx) {
		qhi = qlo // the founders gave up; the unit still serves its riders
	}
	var riders []*attacher
	if claims {
		riders = p.claim(r)
	}
	if qlo == qhi && len(riders) == 0 {
		return
	}
	nr := p.nr
	blo := r * p.rangeBlocks
	bhi := min(blo+p.rangeBlocks, p.nb)
	for b := blo; b < bhi; b++ {
		scanned := false
		for qi := qlo; qi < qhi; qi++ {
			scanned = p.scan(b, &p.founders[qi], &p.cells[qi*nr+r]) || scanned
		}
		for _, a := range riders {
			if !a.settled.Load() {
				scanned = p.scan(b, &a.query, &a.cells[r]) || scanned
			}
		}
		switch {
		case !scanned && claims:
			p.skipped.Add(1)
		case scanned && p.round > 0:
			p.wrapBlocks.Add(1)
		}
		if p.m.blockHook != nil {
			p.m.blockHook(p.key, b)
		}
	}
	if len(riders) > 0 {
		p.land(r, riders)
	}
	if p.key != "" && p.m.sought.Load() {
		// Units are an attachable pass's preemption quantum: yield
		// between them so submitting goroutines get scheduled mid-pass
		// and can attach at the cursor even when scans saturate every
		// core — without this, a CPU-bound pass on a loaded box starves
		// the very arrivals cooperative scans exist to adopt. Only once
		// somebody seeks to attach, though: yielding interleaves the
		// units of overlapping batches, so each stays in flight longer,
		// and a server nobody attaches to would hit its in-flight cap
		// (and shed) at rates it absorbs when batches run back to back.
		runtime.Gosched()
	}
}

// scan evaluates block b for one query into its range cell, checking
// the cell out on first use. It reports whether the block was scanned
// (false: pruned for this query, or the pass has failed).
func (p *pass) scan(b int, q *query, cell **rt.Buf) bool {
	if p.src.Prune(b, q.pred) {
		return false
	}
	c := *cell
	if c == nil {
		// The expected cardinality split evenly across ranges, plus the
		// source's slack — load-bearing for the arena's zero-allocation
		// contract: without it a predicated kernel's first block grows
		// the cell past its checkout size class and the class pools
		// never see a hit.
		c = p.arena.GetBuf(q.hint/p.nr + p.slack)
		*cell = c
	}
	ids, err := p.src.ScanBlock(b, q.bound, c.IDs)
	c.IDs = ids
	if err != nil {
		p.fail(err)
		return false
	}
	return true
}

// claim marks range r claimed and takes the queries riding it; it is
// also the unit boundary at which cancelled attachers are reaped.
func (p *pass) claim(r int) []*attacher {
	p.mu.Lock()
	rs := &p.ranges[r]
	riders := rs.joined
	rs.joined = nil
	rs.open, rs.running = false, len(riders) > 0
	if p.round == 0 {
		p.claimed++
	}
	drops := p.reapLocked()
	p.mu.Unlock()
	for _, a := range drops {
		a.deliver(nil, a.ctx.Err())
	}
	return riders
}

// reapLocked drops attachers whose context died: they leave the live
// set, units stop scanning for them, and every cell no unit is writing
// goes straight back to the arena — a cancelled query must stop costing
// work and memory now, not when the pass ends. Caller holds p.mu and
// delivers the returned queries' context errors outside it.
func (p *pass) reapLocked() []*attacher {
	var drops []*attacher
	for _, a := range p.attachers {
		if a.settled.Load() || !dead(a.ctx) {
			continue
		}
		p.settleLocked(a)
		for r := range a.cells {
			// A running range may be scanning into this slot; its unit
			// releases the cell itself when it lands.
			if !p.ranges[r].running {
				p.arena.PutBuf(a.cells[r])
				a.cells[r] = nil
			}
		}
		cadd(p.m.cancelDropped, 1)
		drops = append(drops, a)
	}
	return drops
}

// settleLocked takes an attacher out of the live set ahead of its one
// deliver call. Caller holds p.mu.
func (p *pass) settleLocked(a *attacher) {
	a.settled.Store(true)
	p.live--
	p.liveSel -= a.sel
}

// land accounts a finished unit's riders: a dropped rider's cell goes
// back to the arena, a live rider with no ranges left is assembled and
// answered.
func (p *pass) land(r int, riders []*attacher) {
	var done []*attacher
	p.mu.Lock()
	p.ranges[r].running = false
	for _, a := range riders {
		if a.settled.Load() {
			p.arena.PutBuf(a.cells[r])
			a.cells[r] = nil
			continue
		}
		if a.remaining--; a.remaining == 0 && !p.failed.Load() {
			p.settleLocked(a)
			done = append(done, a)
		}
	}
	p.mu.Unlock()
	for _, a := range done {
		var ids []storage.RowID
		if out := concat(p.arena, a.cells); out != nil {
			ids = out.IDs
		}
		a.deliver(ids, nil)
	}
}

// concat assembles one query's per-range cells into a single buffer:
// ranges concatenate in order, so rowID order is preserved. A lone cell
// transfers with no copy; the other cells return to the arena. Returns
// nil when no cell was ever checked out (every block pruned).
//
//fclint:owns — the caller receives the assembled buffer.
func concat(arena *rt.Arena, cells []*rt.Buf) *rt.Buf {
	var only *rt.Buf
	total, used := 0, 0
	for _, c := range cells {
		if c != nil {
			only = c
			total += len(c.IDs)
			used++
		}
	}
	out := only
	if used > 1 {
		out = arena.GetBuf(total)
	}
	for i, c := range cells {
		if c == nil {
			continue
		}
		if c != out {
			out.IDs = append(out.IDs, c.IDs...)
			arena.PutBuf(c)
		}
		cells[i] = nil
	}
	return out
}

// nextRound runs between dispatches: after the founders' grid it takes
// the founders out of the live set, then either closes the pass (no
// query missed a range) or turns the missed lists into the next
// wrap-around round. It returns that round's unit count.
func (p *pass) nextRound() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.round == 0 {
		p.live -= len(p.founders)
		p.liveSel -= p.founderSel
	}
	p.round++
	p.wrap = p.wrap[:0]
	for r := range p.ranges {
		rs := &p.ranges[r]
		for _, a := range rs.missed {
			if !a.settled.Load() {
				rs.joined = append(rs.joined, a)
			}
		}
		rs.missed = nil
		if len(rs.joined) > 0 {
			rs.open = true
			p.wrap = append(p.wrap, r)
		}
	}
	p.closed = len(p.wrap) == 0
	return len(p.wrap)
}

// drive dispatches the founders' grid and then wrap-around rounds until
// no admitted query is missing a range. Units must never be skipped by
// the pool on the founders' cancellation — attachers may be riding them
// — so they are dispatched under no context and observe p.ctx themselves.
func (p *pass) drive() error {
	for n := p.nr * p.nc; n > 0; n = p.nextRound() {
		//fclint:ignore ctxflow deliberate: the pool would skip units once the founders cancel, stranding riders; RunMorsel checks p.ctx itself
		if err := p.pool.Dispatch(nil, n, p); err != nil {
			p.fail(err)
		}
		if p.failed.Load() {
			return p.err
		}
	}
	if dead(p.ctx) {
		return p.ctx.Err()
	}
	return nil
}

// assemble moves the founders' cells into a result set.
func (p *pass) assemble() *rt.Results {
	res := p.arena.GetResults(len(p.founders))
	for qi := range p.founders {
		if out := concat(p.arena, p.cells[qi*p.nr:(qi+1)*p.nr]); out != nil {
			res.Attach(qi, out)
		}
	}
	return res
}

// retire ends the pass on every path out of Run, a unit's panic
// included: close it to attachers, answer any it strands (only possible
// after a fault), hand back every cell still checked out, unpublish,
// and recycle the pass. It returns the number of queries the pass adopted.
func (p *pass) retire(published bool) (attached int) {
	m := p.m
	var stranded []*attacher
	p.mu.Lock()
	p.closed = true
	attached = len(p.attachers)
	for _, a := range p.attachers {
		if !a.settled.Load() {
			p.settleLocked(a)
			stranded = append(stranded, a)
		}
	}
	p.mu.Unlock()
	err := errAborted
	if p.failed.Load() {
		err = p.err
	}
	for _, a := range stranded {
		a.deliver(nil, err)
	}
	for i, c := range p.cells {
		p.arena.PutBuf(c)
		p.cells[i] = nil
	}
	for _, a := range p.attachers {
		for _, c := range a.cells {
			p.arena.PutBuf(c)
		}
	}
	if published {
		m.mu.Lock()
		delete(m.live, p.key)
		m.mu.Unlock()
		// Wait out any Progress/Attach that looked the pass up before it
		// was unpublished (see Progress).
		p.mu.Lock()
		p.mu.Unlock()
	}
	cadd(m.wrapBlocks, p.wrapBlocks.Swap(0))
	cadd(m.demandSkipped, p.skipped.Swap(0))

	p.m, p.src, p.ctx, p.pool, p.arena, p.err = nil, nil, nil, nil, nil, nil
	p.founders = p.founders[:0]
	clear(p.attachers)
	p.attachers = p.attachers[:0]
	clear(p.ranges) // drop the rider lists' references with the attachers
	p.round, p.claimed, p.live, p.liveSel, p.founderSel = 0, 0, 0, 0, 0
	p.closed = false
	p.failed.Store(false)
	passPool.Put(p)
	return attached
}

// Run executes one shared scan of src for a batch of founder queries on
// pool, with result buffers from arena, and blocks until the pass
// closes. With a non-empty key the pass is published for mid-pass
// attach while it runs (an empty key runs it unpublished), and closing
// includes any wrap-around rounds attachers added — the founders'
// (bounded) price for the tail latency attachers save. Results come
// back as an arena
// result set, one ascending rowID slice per founder; attached is the
// number of queries the pass adopted. hints is the optional expected
// result cardinality per founder. The founders' cancellation is
// observed between units.
//
//fclint:owns — the caller receives the pooled result set and the Release obligation.
func (m *Manager) Run(ctx context.Context, key string, pool *rt.Pool, arena *rt.Arena,
	src Source, preds []scan.Predicate, hints []int) (res *rt.Results, attached int, err error) {
	if len(preds) == 0 {
		return nil, 0, errors.New("coop: empty batch")
	}
	if dead(ctx) {
		return nil, 0, ctx.Err()
	}
	p := newPass(ctx, m, key, pool, arena, src, preds, hints)
	cadd(m.passes, 1)
	// Publish for mid-pass attach. If another pass is already live on
	// this key the new one runs unpublished — correct, just closed to
	// attachers.
	published := false
	if key != "" {
		m.mu.Lock()
		if _, busy := m.live[key]; !busy {
			m.live[key] = p
			published = true
		}
		m.mu.Unlock()
	}
	defer func() { attached = p.retire(published) }()
	if err := p.drive(); err != nil {
		return nil, 0, err
	}
	return p.assemble(), 0, nil
}

// standalone runs the passes of callers that own no Manager.
var standalone = NewManager(Options{})

// Run executes one unpublished shared scan: Manager.Run under the empty
// key, for the tools, baselines and benchmarks that own no Manager.
//
//fclint:owns — the caller receives the pooled result set and the Release obligation.
func Run(ctx context.Context, pool *rt.Pool, arena *rt.Arena,
	src Source, preds []scan.Predicate, hints []int) (*rt.Results, error) {
	res, _, err := standalone.Run(ctx, "", pool, arena, src, preds, hints)
	return res, err
}

// Attach admits one late query to the in-flight pass on key, if there
// is one and pricing already said yes. The query rides every range the
// pass has not yet claimed — sharing those blocks with the founders —
// and the ranges it missed are served by wrap-around units after the
// founders' grid drains. Ranges its predicate prunes entirely are never
// scheduled for it. deliver is called exactly once (ascending rowIDs, a
// context error at a reap, or the pass failure). maxAttach caps the
// pass's attachers (<= 0: DefaultMaxAttach); savedNs is the model's
// predicted latency saving, recorded for observability. Returns false —
// next-window semantics — when no attachable pass exists, the pass is
// closing or full, or the attach fault site fired.
//
//fclint:owns — delivered rowIDs alias an arena buffer the submitter now owns.
func (m *Manager) Attach(ctx context.Context, key string, pred scan.Predicate, sel float64, hint int,
	savedNs int64, maxAttach int, deliver func([]storage.RowID, error)) bool {
	if deliver == nil {
		return false
	}
	m.seek()
	if err := attachFault(); err != nil {
		cadd(m.attachRejected, 1)
		return false
	}
	if dead(ctx) {
		return false
	}
	if maxAttach <= 0 {
		maxAttach = DefaultMaxAttach
	}
	admitted, empty := m.admit(key, maxAttach, &attacher{
		query: query{pred: pred, hint: hint},
		sel:   sel, ctx: ctx, deliver: deliver,
	})
	if !admitted {
		cadd(m.attachRejected, 1)
		return false
	}
	cadd(m.attaches, 1)
	hrec(m.attachSavedNs, savedNs)
	if empty {
		deliver(nil, nil)
	}
	return true
}

// admit enters a on the live pass under key: it joins every range still
// open this round and is recorded as having missed the rest. empty
// reports that its predicate prunes every block, so there is nothing to
// wait for and the caller answers it on the spot.
func (m *Manager) admit(key string, maxAttach int, a *attacher) (admitted, empty bool) {
	m.mu.Lock()
	p := m.live[key]
	if p == nil {
		m.mu.Unlock()
		return false, false
	}
	p.mu.Lock() // before the registry lock drops: see Progress
	m.mu.Unlock()
	defer p.mu.Unlock()
	if p.closed || p.failed.Load() || len(p.attachers) >= maxAttach {
		return false, false
	}
	a.bound = p.src.Bind(a.pred)
	a.cells = make([]*rt.Buf, p.nr)
	for r := range p.ranges {
		if p.prunes(r, a.pred) {
			continue
		}
		rs := &p.ranges[r]
		if rs.open {
			rs.joined = append(rs.joined, a)
		} else {
			rs.missed = append(rs.missed, a)
		}
		a.remaining++
	}
	p.attachers = append(p.attachers, a)
	if a.remaining == 0 {
		a.settled.Store(true)
		return true, true
	}
	p.live++
	p.liveSel += a.sel
	return true, false
}

// prunes reports whether every block of range r is pruned for pred.
func (p *pass) prunes(r int, pred scan.Predicate) bool {
	blo := r * p.rangeBlocks
	for b := blo; b < min(blo+p.rangeBlocks, p.nb); b++ {
		if !p.src.Prune(b, pred) {
			return false
		}
	}
	return true
}

// attachFault gives the chaos suite its shot at the attach decision.
// Error and panic faults both degrade the attach to next-window
// semantics; a delay fault holds the attach at the decision point, then
// proceeds.
func attachFault() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("coop: injected attach panic: %v", r)
		}
	}()
	return faultinject.Fire(FaultSiteAttach)
}

// cadd/hrec are nil-tolerant instrument helpers: a manager built
// without a registry records nothing.
func cadd(c *obs.Counter, n int64) {
	if c != nil {
		c.Add(n)
	}
}

func hrec(h *obs.Histogram, v int64) {
	if h != nil {
		h.Record(v)
	}
}
