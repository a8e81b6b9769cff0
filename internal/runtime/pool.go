package runtime

import (
	"context"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"

	"fastcolumns/internal/faultinject"
	"fastcolumns/internal/obs"
)

// FaultSiteMorsel fires once per executed morsel, inside the worker,
// so chaos suites can inject errors, panics and delays into the middle
// of a dispatched batch.
const FaultSiteMorsel = "runtime.morsel"

// Job is one dispatched unit of data-parallel work, pre-split into n
// independent morsels. RunMorsel(i) is called exactly once for each
// i in [0, n) that the dispatch reaches, concurrently from pool
// workers and from the dispatching goroutine itself. Morsels must not
// block on other morsels of the same job and must not call Dispatch.
type Job interface {
	RunMorsel(i int)
}

// task is one (job, morsel index) pair sitting in a worker deque.
type task struct {
	j   *job
	idx int
}

// job is the pooled per-dispatch control block. The WaitGroup counts
// unfinished morsels; flag words record the first failure of each kind
// (visible to the dispatcher through wg.Wait's happens-before edge).
type job struct {
	runner    Job
	ctx       context.Context
	wg        sync.WaitGroup
	cancelled atomic.Bool
	panicked  atomic.Bool
	panicVal  any
	failed    atomic.Bool
	err       error
}

var jobPool = sync.Pool{New: func() any { return new(job) }}

// deque is one worker's work queue: the owner pushes and pops at the
// back (LIFO keeps its morsels cache-warm), thieves steal from the
// front (FIFO takes the oldest, largest-remaining work first). A plain
// mutex-guarded slice: morsels are thousands of tuples each, so queue
// operations are nowhere near the contention point.
type deque struct {
	mu   sync.Mutex
	buf  []task
	head int
}

func (d *deque) push(t task) {
	d.mu.Lock()
	d.buf = append(d.buf, t)
	d.mu.Unlock()
}

// popBack removes the most recently pushed task (owner side).
func (d *deque) popBack() (task, bool) {
	d.mu.Lock()
	if d.head == len(d.buf) {
		d.mu.Unlock()
		return task{}, false
	}
	l := len(d.buf) - 1
	t := d.buf[l]
	d.buf[l] = task{}
	d.buf = d.buf[:l]
	if d.head == len(d.buf) {
		d.buf = d.buf[:0]
		d.head = 0
	}
	d.mu.Unlock()
	return t, true
}

// stealFront removes the oldest task (thief side).
func (d *deque) stealFront() (task, bool) {
	d.mu.Lock()
	if d.head == len(d.buf) {
		d.mu.Unlock()
		return task{}, false
	}
	t := d.buf[d.head]
	d.buf[d.head] = task{}
	d.head++
	if d.head == len(d.buf) {
		d.buf = d.buf[:0]
		d.head = 0
	}
	d.mu.Unlock()
	return t, true
}

// stealFor removes the oldest task belonging to j, so a dispatcher can
// help drain its own job without executing unrelated (possibly
// blocking) work it does not own.
func (d *deque) stealFor(j *job) (task, bool) {
	d.mu.Lock()
	for i := d.head; i < len(d.buf); i++ {
		if d.buf[i].j != j {
			continue
		}
		t := d.buf[i]
		copy(d.buf[i:], d.buf[i+1:])
		l := len(d.buf) - 1
		d.buf[l] = task{}
		d.buf = d.buf[:l]
		if d.head == len(d.buf) {
			d.buf = d.buf[:0]
			d.head = 0
		}
		d.mu.Unlock()
		return t, true
	}
	d.mu.Unlock()
	return task{}, false
}

// Pool is a persistent set of workers executing dispatched morsels.
// One pool serves a whole engine: it is created with the engine,
// shared by every access path, and shut down by Engine.Close. The
// zero-value-adjacent nil *Pool is valid and runs every dispatch
// inline on the caller.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	deques []*deque
	join   sync.WaitGroup
	next   atomic.Uint32

	workersG   *obs.Gauge
	busyG      *obs.Gauge
	steals     *obs.Counter
	dispatches *obs.Counter
	morsels    *obs.Counter
}

// NewPool starts a pool with the given worker count (GOMAXPROCS when
// workers <= 0). reg may be nil; when set, the pool exports
// runtime.pool.* gauges and counters.
func NewPool(workers int, reg *obs.Registry) *Pool {
	if workers <= 0 {
		workers = stdruntime.GOMAXPROCS(0)
	}
	p := &Pool{deques: make([]*deque, workers)}
	p.cond = sync.NewCond(&p.mu)
	if reg != nil {
		p.workersG = reg.Gauge("runtime.pool.workers")
		p.busyG = reg.Gauge("runtime.pool.busy")
		p.steals = reg.Counter("runtime.pool.steals")
		p.dispatches = reg.Counter("runtime.pool.dispatches")
		p.morsels = reg.Counter("runtime.pool.morsels")
	}
	gset(p.workersG, int64(workers))
	for i := range p.deques {
		p.deques[i] = new(deque)
	}
	p.join.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(i)
	}
	return p
}

// Workers returns the pool's worker count (1 for a nil pool, which
// executes inline on its single calling goroutine).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return len(p.deques)
}

// Close drains every queued morsel, stops the workers and waits for
// them to exit. Dispatch remains safe after Close: it degrades to
// inline execution on the caller. Close is idempotent.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.join.Wait()
	gset(p.workersG, 0)
}

// worker is the long-lived loop of worker w: drain own deque LIFO,
// then steal FIFO from the others, then park until a dispatch arrives
// or the pool closes.
func (p *Pool) worker(w int) {
	defer p.join.Done()
	own := p.deques[w]
	for {
		if t, ok := own.popBack(); ok {
			p.exec(t, false)
			continue
		}
		if t, ok := p.stealAny(w); ok {
			p.exec(t, true)
			continue
		}
		p.mu.Lock()
		// Rescan under the pool lock: a pusher publishes tasks before
		// taking this lock to broadcast, so a task that raced the scans
		// above is visible here — no missed wakeups.
		if t, ok := p.scanLocked(); ok {
			p.mu.Unlock()
			p.exec(t, true)
			continue
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.cond.Wait()
		p.mu.Unlock()
	}
}

// stealAny scans the other workers' deques starting after w.
func (p *Pool) stealAny(w int) (task, bool) {
	n := len(p.deques)
	for i := 1; i < n; i++ {
		if t, ok := p.deques[(w+i)%n].stealFront(); ok {
			return t, true
		}
	}
	return task{}, false
}

// scanLocked checks every deque once; called with p.mu held.
func (p *Pool) scanLocked() (task, bool) {
	for _, d := range p.deques {
		if t, ok := d.stealFront(); ok {
			return t, true
		}
	}
	return task{}, false
}

// exec runs one morsel: skip if the job's context was cancelled, give
// the fault injector its shot, recover panics into the job so the
// dispatcher can re-raise them on its own goroutine.
func (p *Pool) exec(t task, stolen bool) {
	if p != nil {
		gadd(p.busyG, 1)
		cadd(p.morsels, 1)
		if stolen {
			cadd(p.steals, 1)
		}
	}
	j := t.j
	runMorsel(j, t.idx)
	if p != nil {
		gadd(p.busyG, -1)
	}
	j.wg.Done()
}

// runMorsel executes morsel idx of j with cancellation, fault
// injection and panic capture. Shared by pool workers, dispatcher
// help, and the inline path.
func runMorsel(j *job, idx int) {
	if j.cancelled.Load() || j.panicked.Load() {
		return
	}
	if j.ctx != nil && j.ctx.Err() != nil {
		j.cancelled.Store(true)
		return
	}
	// The recover must be armed before the injector fires: an injected
	// panic is exactly as escaping-capable as a kernel panic.
	defer func() {
		if r := recover(); r != nil {
			if j.panicked.CompareAndSwap(false, true) {
				j.panicVal = r
			}
		}
	}()
	if err := faultinject.Fire(FaultSiteMorsel); err != nil {
		if j.failed.CompareAndSwap(false, true) {
			j.err = fmt.Errorf("morsel %d: %w", idx, err)
		}
		return
	}
	j.runner.RunMorsel(idx)
}

// Dispatch splits r into n morsels, spreads them over the pool's
// deques and helps execute them from the calling goroutine; it returns
// when all n are done or skipped. Cancellation is observed between
// morsels: once ctx is done, remaining morsels are skipped and ctx's
// error returned. A panic inside a morsel is re-raised on the calling
// goroutine after the job drains, so the caller's recover discipline
// (scheduler safeExec, server selectRecovered) keeps working. A nil or
// closed pool executes the morsels inline on the caller — correct,
// just not parallel.
//
// The dispatcher participates in the work ("caller helps"): it drains
// its own job's morsels while waiting, so Dispatch cannot deadlock
// even when every worker is busy with other jobs.
func (p *Pool) Dispatch(ctx context.Context, n int, r Job) error {
	if n <= 0 {
		return nil
	}
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	j := jobPool.Get().(*job)
	j.runner, j.ctx = r, ctx
	j.cancelled.Store(false)
	j.panicked.Store(false)
	j.failed.Store(false)
	j.panicVal, j.err = nil, nil

	if p == nil {
		for i := 0; i < n; i++ {
			runMorsel(j, i)
		}
	} else {
		cadd(p.dispatches, 1)
		j.wg.Add(n)
		start := int(p.next.Add(1))
		w := len(p.deques)
		for i := 0; i < n; i++ {
			p.deques[(start+i)%w].push(task{j: j, idx: i})
		}
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
		// Help: drain this job's own morsels from the deques. Whatever
		// a worker already claimed completes on that worker; wg.Wait
		// covers the gap.
		for {
			t, ok := task{}, false
			for i := 0; i < w && !ok; i++ {
				t, ok = p.deques[(start+i)%w].stealFor(j)
			}
			if !ok {
				break
			}
			cadd(p.morsels, 1)
			runMorsel(j, t.idx)
			j.wg.Done()
		}
		j.wg.Wait()
	}

	pv, panicked := j.panicVal, j.panicked.Load()
	err := j.err
	cancelled := j.cancelled.Load()
	j.runner, j.ctx, j.panicVal, j.err = nil, nil, nil, nil
	jobPool.Put(j)

	if panicked {
		panic(pv)
	}
	if cancelled {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		return context.Canceled
	}
	return err
}

// Go runs fn on its own goroutine. It is the module's escape hatch for
// detached or potentially blocking work that must not occupy a pool
// worker (scheduler batch runners, cancellation watchers, calibration
// loops); the gospawn lint analyzer forbids raw go statements
// everywhere else.
func Go(fn func()) {
	go fn()
}

var (
	defaultMu   sync.Mutex
	defaultPool *Pool
)

// Default returns a lazily created process-wide pool sized to
// GOMAXPROCS, used by direct callers (tools, baselines, benchmarks)
// when no engine-owned pool is in scope. It is never closed; engines
// create and close their own pools.
func Default() *Pool {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultPool == nil {
		defaultPool = NewPool(0, nil)
	}
	return defaultPool
}

// cadd/gadd/gset are nil-tolerant instrument helpers: a pool built
// without a registry records nothing.
func cadd(c *obs.Counter, n int64) {
	if c != nil {
		c.Add(n)
	}
}

func gadd(g *obs.Gauge, n int64) {
	if g != nil {
		g.Add(n)
	}
}

func gset(g *obs.Gauge, n int64) {
	if g != nil {
		g.Set(n)
	}
}
