package coop

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fastcolumns/internal/faultinject"
	"fastcolumns/internal/obs"
	rt "fastcolumns/internal/runtime"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/storage"
)

// countingSource wraps a Source and counts every (predicate, block) scan
// — the instrument behind the exactly-once assertions.
type countingSource struct {
	Source
	mu    sync.Mutex
	scans map[scan.Predicate]map[int]int
}

func newCountingSource(s Source) *countingSource {
	return &countingSource{Source: s, scans: make(map[scan.Predicate]map[int]int)}
}

func (c *countingSource) ScanBlock(b int, p scan.Predicate, out []storage.RowID) ([]storage.RowID, error) {
	c.mu.Lock()
	if c.scans[p] == nil {
		c.scans[p] = make(map[int]int)
	}
	c.scans[p][b]++
	c.mu.Unlock()
	return c.Source.ScanBlock(b, p, out)
}

// assertExactlyOnce checks that pred was scanned over exactly the blocks
// in want, each exactly once. Scans are recorded under the bound
// predicate ScanBlock receives (pred itself for value kernels).
func (c *countingSource) assertExactlyOnce(t *testing.T, pred scan.Predicate, want []int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	got := c.scans[c.Source.Bind(pred)]
	if len(got) != len(want) {
		t.Fatalf("pred %v scanned %d distinct blocks, want %d (%v)", pred, len(got), len(want), got)
	}
	for _, b := range want {
		if got[b] != 1 {
			t.Fatalf("pred %v scanned block %d %d times, want exactly once", pred, b, got[b])
		}
	}
}

func seqBlocks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func testData(n int, seed int64) []storage.Value {
	rng := rand.New(rand.NewSource(seed))
	data := make([]storage.Value, n)
	for i := range data {
		data[i] = storage.Value(rng.Intn(1000))
	}
	return data
}

func sameRowIDs(a, b []storage.RowID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

const tBlock = 64 // tuples per block in these tests

// runWithAttach executes one single-worker pass over data and, via the
// BlockHook, attaches each attacher the first time its trigger block is
// scanned. It returns founder results, attacher replies, and the
// counting source for exactly-once assertions.
type attachSpec struct {
	trigger  int // hook block that fires the attach
	onWrap   bool
	pred     scan.Predicate
	rowIDs   []storage.RowID
	err      error
	attached bool
}

func runWithAttach(t *testing.T, data []storage.Value, founders []scan.Predicate, attachers []*attachSpec) (*rt.Results, *countingSource, *Manager, *obs.Registry) {
	t.Helper()
	return runSourceWithAttach(t, scan.NewRaw(data, tBlock, nil), founders, attachers)
}

// runSourceWithAttach is runWithAttach over any source.
func runSourceWithAttach(t *testing.T, base Source, founders []scan.Predicate, attachers []*attachSpec) (*rt.Results, *countingSource, *Manager, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	src := newCountingSource(base)
	var m *Manager
	var mu sync.Mutex
	seen := make(map[int]bool)
	var wg sync.WaitGroup
	m = NewManager(Options{
		Metrics: reg,
		BlockHook: func(key string, b int) {
			mu.Lock()
			wrap := seen[b]
			seen[b] = true
			mu.Unlock()
			for _, a := range attachers {
				if a.attached || a.trigger != b || a.onWrap != wrap {
					continue
				}
				a.attached = true
				aa := a
				wg.Add(1)
				ok := m.Attach(context.Background(), key, a.pred, 0.05, 0, 0, 0,
					func(ids []storage.RowID, err error) {
						aa.rowIDs = append([]storage.RowID(nil), ids...)
						aa.err = err
						wg.Done()
					})
				if !ok {
					t.Errorf("attach at block %d (wrap=%v) rejected", b, wrap)
					wg.Done()
				}
			}
		},
	})
	res, _, err := m.Run(context.Background(), "t\x00a", nil, nil, src, founders, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wg.Wait()
	return res, src, m, reg
}

func TestFoundersMatchSequentialReference(t *testing.T) {
	data := testData(1000, 1)
	preds := []scan.Predicate{{Lo: 0, Hi: 99}, {Lo: 500, Hi: 999}, {Lo: 250, Hi: 260}}
	res, src, _, _ := runWithAttach(t, data, preds, nil)
	defer res.Release()
	want := scan.Shared(data, preds, tBlock)
	for i := range preds {
		if !sameRowIDs(res.RowIDs[i], want[i]) {
			t.Fatalf("founder %d: got %d rows, want %d", i, len(res.RowIDs[i]), len(want[i]))
		}
		src.assertExactlyOnce(t, preds[i], seqBlocks(16))
	}
}

func TestAttachAtFirstMiddleLastBlock(t *testing.T) {
	data := testData(1024, 2) // 16 blocks
	founders := []scan.Predicate{{Lo: 0, Hi: 499}}
	for _, trigger := range []int{0, 8, 15} {
		a := &attachSpec{trigger: trigger, pred: scan.Predicate{Lo: 100, Hi: 700}}
		res, src, _, _ := runWithAttach(t, data, founders, []*attachSpec{a})
		want := scan.Shared(data, []scan.Predicate{founders[0], a.pred}, tBlock)
		if !sameRowIDs(res.RowIDs[0], want[0]) {
			t.Fatalf("trigger %d: founder rows diverged", trigger)
		}
		if a.err != nil {
			t.Fatalf("trigger %d: attacher error %v", trigger, a.err)
		}
		if !sameRowIDs(a.rowIDs, want[1]) {
			t.Fatalf("trigger %d: attacher got %d rows, want %d", trigger, len(a.rowIDs), len(want[1]))
		}
		src.assertExactlyOnce(t, a.pred, seqBlocks(16))
		res.Release()
	}
}

func TestAttachDuringWrap(t *testing.T) {
	// First attacher at block 2 forces a wrap over blocks 0..2; second
	// attacher fires the first time a wrap block is scanned — attaching
	// to a pass already in its wrap-around continuation.
	data := testData(640, 3) // 10 blocks
	founders := []scan.Predicate{{Lo: 0, Hi: 399}}
	a1 := &attachSpec{trigger: 2, pred: scan.Predicate{Lo: 50, Hi: 450}}
	a2 := &attachSpec{trigger: 0, onWrap: true, pred: scan.Predicate{Lo: 200, Hi: 800}}
	res, src, _, reg := runWithAttach(t, data, founders, []*attachSpec{a1, a2})
	defer res.Release()
	want := scan.Shared(data, []scan.Predicate{founders[0], a1.pred, a2.pred}, tBlock)
	if !sameRowIDs(res.RowIDs[0], want[0]) {
		t.Fatal("founder rows diverged")
	}
	for i, a := range []*attachSpec{a1, a2} {
		if !a.attached {
			t.Fatalf("attacher %d never attached", i)
		}
		if a.err != nil || !sameRowIDs(a.rowIDs, want[i+1]) {
			t.Fatalf("attacher %d: err=%v got %d rows want %d", i, a.err, len(a.rowIDs), len(want[i+1]))
		}
		src.assertExactlyOnce(t, a.pred, seqBlocks(10))
	}
	if w := reg.Counter("coop.wrap_blocks").Load(); w == 0 {
		t.Fatal("expected wrap-around block claims to be counted")
	}
}

func TestSimultaneousMultiAttach(t *testing.T) {
	data := testData(1280, 4) // 20 blocks
	founders := []scan.Predicate{{Lo: 0, Hi: 299}, {Lo: 600, Hi: 999}}
	var as []*attachSpec
	for _, p := range []scan.Predicate{{Lo: 10, Hi: 500}, {Lo: 400, Hi: 420}, {Lo: 0, Hi: 999}} {
		as = append(as, &attachSpec{trigger: 7, pred: p})
	}
	res, src, _, reg := runWithAttach(t, data, founders, as)
	defer res.Release()
	all := append(append([]scan.Predicate(nil), founders...), as[0].pred, as[1].pred, as[2].pred)
	want := scan.Shared(data, all, tBlock)
	for i := range founders {
		if !sameRowIDs(res.RowIDs[i], want[i]) {
			t.Fatalf("founder %d diverged", i)
		}
	}
	for i, a := range as {
		if a.err != nil || !sameRowIDs(a.rowIDs, want[len(founders)+i]) {
			t.Fatalf("attacher %d: err=%v rows=%d want=%d", i, a.err, len(a.rowIDs), len(want[len(founders)+i]))
		}
		src.assertExactlyOnce(t, a.pred, seqBlocks(20))
	}
	if got := reg.Counter("coop.attach").Load(); got != 3 {
		t.Fatalf("coop.attach = %d, want 3", got)
	}
}

func TestCancelledAttacherDroppedAndBufferReleasedEagerly(t *testing.T) {
	// The attacher joins at block 1 and its context dies at block 3; the
	// pass must answer it with the context error at the next morsel
	// boundary and hand its pooled buffer back to the arena while the
	// pass is still running — pinned via the runtime.arena.returns
	// counter observed from a later block's hook. (The put-side counter,
	// not a checkout hit: under the race detector sync.Pool sheds puts
	// at random, so a Get-after-Put hit is not a reliable witness.)
	reg := obs.NewRegistry()
	arena := rt.NewArena(0, reg)
	data := testData(1280, 5) // 20 blocks
	src := newCountingSource(scan.NewRaw(data, tBlock, nil))
	ctx, cancel := context.WithCancel(context.Background())
	var m *Manager
	var (
		mu         sync.Mutex
		attached   bool
		cancelled  bool
		checked    bool
		released   bool
		putsBefore int64
		repErr     error
		delivered  = make(chan struct{})
	)
	m = NewManager(Options{
		Metrics: reg,
		BlockHook: func(key string, b int) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case b == 1 && !attached:
				attached = true
				if !m.Attach(ctx, key, scan.Predicate{Lo: 0, Hi: 500}, 0.5, 1024, 0, 0,
					func(_ []storage.RowID, err error) {
						repErr = err
						close(delivered)
					}) {
					t.Error("attach rejected")
				}
			case b == 3 && attached && !cancelled:
				cancelled = true
				putsBefore = reg.Counter("runtime.arena.returns").Load()
				cancel()
			case b >= 5 && cancelled && !checked:
				checked = true
				// The reaped attacher's buffer must already have been
				// handed back: PutBuf ran between the cancel and this
				// block, while the pass is still scanning.
				released = reg.Counter("runtime.arena.returns").Load() > putsBefore
			}
		},
	})
	founders := []scan.Predicate{{Lo: 0, Hi: 999}}
	res, _, err := m.Run(context.Background(), "t\x00a", nil, arena, src, founders, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	defer res.Release()
	<-delivered
	if !errors.Is(repErr, context.Canceled) {
		t.Fatalf("attacher reply error = %v, want context.Canceled", repErr)
	}
	if !checked {
		t.Fatal("pass ended before the eager-release check ran")
	}
	if !released {
		t.Fatal("cancelled attacher's buffer was not released back to the arena mid-pass")
	}
	if got := reg.Counter("coop.cancel_dropped").Load(); got != 1 {
		t.Fatalf("coop.cancel_dropped = %d, want 1", got)
	}
	// Founder untouched by the cancellation.
	want := scan.Shared(data, founders, tBlock)
	if !sameRowIDs(res.RowIDs[0], want[0]) {
		t.Fatal("founder rows diverged after mid-pass cancellation")
	}
}

func TestZonemapDemandSkip(t *testing.T) {
	// Sorted data with a zonemap: every founder wants only the low
	// prefix, so trailing blocks carry zero demand and must never be
	// scanned — counted as demand-skipped when the pass closes.
	n := 1280 // 20 blocks
	data := make([]storage.Value, n)
	for i := range data {
		data[i] = storage.Value(i)
	}
	col := mustColumn(t, data)
	zm := storage.BuildZonemap(col, tBlock)
	reg := obs.NewRegistry()
	src := newCountingSource(scan.NewRaw(data, tBlock, zm))
	m := NewManager(Options{Metrics: reg})
	preds := []scan.Predicate{{Lo: 0, Hi: 100}, {Lo: 50, Hi: 200}}
	res, _, err := m.Run(context.Background(), "t\x00a", nil, nil, src, preds, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	defer res.Release()
	want := scan.Shared(data, preds, tBlock)
	for i := range preds {
		if !sameRowIDs(res.RowIDs[i], want[i]) {
			t.Fatalf("founder %d diverged", i)
		}
	}
	src.mu.Lock()
	for p, blocks := range src.scans {
		for b := range blocks {
			if lo := b * tBlock; storage.Value(lo) > p.Hi {
				t.Fatalf("pred %v scanned prunable block %d", p, b)
			}
		}
	}
	src.mu.Unlock()
	if got := reg.Counter("coop.demand_skipped").Load(); got == 0 {
		t.Fatal("expected demand-skipped blocks to be counted")
	}
}

func mustColumn(t *testing.T, data []storage.Value) *storage.Column {
	t.Helper()
	st := storage.NewTable("t")
	if err := st.AddColumn("a", data); err != nil {
		t.Fatal(err)
	}
	col, err := st.Column("a")
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func TestAttachFaultDegradesToNextWindow(t *testing.T) {
	for _, kind := range []faultinject.Kind{faultinject.Error, faultinject.Panic} {
		reg := obs.NewRegistry()
		m := NewManager(Options{Metrics: reg})
		data := testData(640, 6)
		src := scan.NewRaw(data, tBlock, nil)
		deactivate := faultinject.Activate(faultinject.New(1, faultinject.Rule{Site: FaultSiteAttach, Kind: kind, Every: 1}))
		var rejected bool
		hook := func(key string, b int) {
			if b != 1 || rejected {
				return
			}
			rejected = true
			if m.Attach(context.Background(), key, scan.Predicate{Lo: 0, Hi: 10}, 0.01, 0, 0, 0,
				func([]storage.RowID, error) {}) {
				t.Errorf("kind %v: attach succeeded under fault", kind)
			}
		}
		m.blockHook = hook
		res, _, err := m.Run(context.Background(), "t\x00a", nil, nil, src, []scan.Predicate{{Lo: 0, Hi: 999}}, nil)
		deactivate()
		if err != nil {
			t.Fatalf("kind %v: founder pass failed: %v", kind, err)
		}
		res.Release()
		if !rejected {
			t.Fatalf("kind %v: hook never fired", kind)
		}
		if got := reg.Counter("coop.attach_rejected").Load(); got != 1 {
			t.Fatalf("kind %v: coop.attach_rejected = %d, want 1", kind, got)
		}
		if got := reg.Counter("coop.attach").Load(); got != 0 {
			t.Fatalf("kind %v: coop.attach = %d, want 0", kind, got)
		}
	}
}

func TestAttachDelayFaultProceeds(t *testing.T) {
	m := NewManager(Options{})
	data := testData(640, 7)
	src := scan.NewRaw(data, tBlock, nil)
	deactivate := faultinject.Activate(faultinject.New(1, faultinject.Rule{
		Site: FaultSiteAttach, Kind: faultinject.Delay, Every: 1, Delay: time.Millisecond,
	}))
	defer deactivate()
	done := make(chan error, 1)
	var once sync.Once
	m.blockHook = func(key string, b int) {
		once.Do(func() {
			if !m.Attach(context.Background(), key, scan.Predicate{Lo: 0, Hi: 500}, 0.5, 0, 0, 0,
				func(_ []storage.RowID, err error) { done <- err }) {
				t.Error("delayed attach rejected")
				done <- nil
			}
		})
	}
	res, _, err := m.Run(context.Background(), "t\x00a", nil, nil, src, []scan.Predicate{{Lo: 0, Hi: 999}}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	defer res.Release()
	if err := <-done; err != nil {
		t.Fatalf("delayed attacher reply error: %v", err)
	}
}

func TestMorselFaultFailsPassAndAnswersAttachers(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Options{Metrics: reg})
	data := testData(640, 8)
	src := scan.NewRaw(data, tBlock, nil)
	// Fire once, on the 5th block claim — after the hook has attached.
	deactivate := faultinject.Activate(faultinject.New(1, faultinject.Rule{
		Site: rt.FaultSiteMorsel, Kind: faultinject.Error, Every: 5, Count: 1,
	}))
	defer deactivate()
	attacherErr := make(chan error, 1)
	var once sync.Once
	m.blockHook = func(key string, b int) {
		once.Do(func() {
			if !m.Attach(context.Background(), key, scan.Predicate{Lo: 0, Hi: 500}, 0.5, 0, 0, 0,
				func(_ []storage.RowID, err error) { attacherErr <- err }) {
				t.Error("attach rejected before fault")
				attacherErr <- nil
			}
		})
	}
	_, _, err := m.Run(context.Background(), "t\x00a", nil, nil, src, []scan.Predicate{{Lo: 0, Hi: 999}}, nil)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Run error = %v, want injected fault", err)
	}
	if aerr := <-attacherErr; !errors.Is(aerr, faultinject.ErrInjected) {
		t.Fatalf("attacher error = %v, want injected fault", aerr)
	}
}

func TestConcurrentAttachersUnderParallelWorkers(t *testing.T) {
	// Multi-worker pass with attachers firing from separate goroutines —
	// the race-detector workout for the pass locking.
	reg := obs.NewRegistry()
	arena := rt.NewArena(0, reg)
	data := testData(1<<15, 9) // 512 blocks
	src := newCountingSource(scan.NewRaw(data, tBlock, nil))
	pool := rt.NewPool(4, nil)
	defer pool.Close()
	started := make(chan string, 1)
	var once sync.Once
	m := NewManager(Options{
		Metrics: reg,
		BlockHook: func(key string, b int) {
			once.Do(func() { started <- key })
		},
	})
	founders := []scan.Predicate{{Lo: 0, Hi: 399}, {Lo: 600, Hi: 999}}
	attachPreds := []scan.Predicate{{Lo: 0, Hi: 999}, {Lo: 100, Hi: 101}, {Lo: 300, Hi: 700}, {Lo: 0, Hi: 0}}
	type reply struct {
		i   int
		ids []storage.RowID
		err error
	}
	replies := make(chan reply, len(attachPreds))
	var attachOK [4]bool
	var wg sync.WaitGroup
	wg.Add(1)
	rt.Go(func() {
		defer wg.Done()
		key := <-started
		for i, p := range attachPreds {
			i, p := i, p
			attachOK[i] = m.Attach(context.Background(), key, p, 0.1, 0, 0, 0,
				func(ids []storage.RowID, err error) {
					replies <- reply{i: i, ids: append([]storage.RowID(nil), ids...), err: err}
				})
		}
	})
	res, _, err := m.Run(context.Background(), "t\x00a", pool, arena, src, founders, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	defer res.Release()
	wg.Wait()
	close(replies)
	want := scan.Shared(data, append(append([]scan.Predicate(nil), founders...), attachPreds...), tBlock)
	for i := range founders {
		if !sameRowIDs(res.RowIDs[i], want[i]) {
			t.Fatalf("founder %d diverged", i)
		}
	}
	got := make(map[int]reply)
	for r := range replies {
		got[r.i] = r
	}
	for i := range attachPreds {
		if !attachOK[i] {
			continue // pass may have closed before this attach: next-window semantics
		}
		r, ok := got[i]
		if !ok {
			t.Fatalf("attacher %d admitted but never answered", i)
		}
		if r.err != nil || !sameRowIDs(r.ids, want[len(founders)+i]) {
			t.Fatalf("attacher %d: err=%v rows=%d want=%d", i, r.err, len(r.ids), len(want[len(founders)+i]))
		}
		src.assertExactlyOnce(t, attachPreds[i], seqBlocks(512))
	}
}

func FuzzAttachOffsets(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint16(0), uint16(999), uint16(100), uint16(800))
	f.Add(int64(2), uint8(7), uint8(2), uint16(50), uint16(51), uint16(0), uint16(999))
	f.Add(int64(3), uint8(15), uint8(4), uint16(900), uint16(999), uint16(400), uint16(500))
	f.Add(int64(4), uint8(9), uint8(5), uint16(10), uint16(600), uint16(300), uint16(310))
	f.Fuzz(func(t *testing.T, seed int64, trigger, kind uint8, flo, fhi, alo, ahi uint16) {
		data := testData(1024, seed) // 16 blocks
		if fhi < flo {
			flo, fhi = fhi, flo
		}
		if ahi < alo {
			alo, ahi = ahi, alo
		}
		founder := scan.Predicate{Lo: storage.Value(flo % 1000), Hi: storage.Value(fhi % 1000)}
		apred := scan.Predicate{Lo: storage.Value(alo % 1000), Hi: storage.Value(ahi % 1000)}
		if founder.Hi < founder.Lo || apred.Hi < apred.Lo || founder == apred {
			t.Skip() // identical predicates would fold in the counting map
		}
		base := sourceKinds[int(kind)%len(sourceKinds)].build(t, data, tBlock)
		if base.Bind(founder) == base.Bind(apred) {
			t.Skip() // distinct ranges can bind to the same code bounds
		}
		a := &attachSpec{trigger: int(trigger) % 16, pred: apred}
		res, src, _, _ := runSourceWithAttach(t, base, []scan.Predicate{founder}, []*attachSpec{a})
		defer res.Release()
		want := scan.Shared(data, []scan.Predicate{founder, apred}, tBlock)
		if !sameRowIDs(res.RowIDs[0], want[0]) {
			t.Fatal("founder rows diverged")
		}
		if !a.attached {
			t.Fatalf("attacher never attached (trigger %d)", int(trigger)%16)
		}
		if a.err != nil || !sameRowIDs(a.rowIDs, want[1]) {
			t.Fatalf("attacher: err=%v rows=%d want=%d", a.err, len(a.rowIDs), len(want[1]))
		}
		src.assertExactlyOnce(t, apred, liveBlocks(src, apred))
	})
}
