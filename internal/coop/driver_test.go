package coop

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fastcolumns/internal/imprints"
	"fastcolumns/internal/obs"
	"fastcolumns/internal/race"
	rt "fastcolumns/internal/runtime"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/storage"
)

// This file pins the pass driver as the engine's shared scan: founders
// only, on a real pool with a real arena, it must select exactly what
// the naive filter selects, for every source kind — and with attachers
// it must still do so, each query seeing each non-pruned block exactly
// once. The suites that lived beside the per-layout morsel drivers in
// internal/scan moved here with the driver, their assertions unchanged;
// the per-layout corpus sweeps (raw, packed) run as rows of
// TestDifferentialEverySourceThroughDriver.

// refFilter is the specification: one branch per tuple, append on match.
func refFilter(data []storage.Value, p scan.Predicate) []storage.RowID {
	var out []storage.RowID
	for i, v := range data {
		if p.Matches(v) {
			out = append(out, storage.RowID(i))
		}
	}
	return out
}

func sameIDs(t *testing.T, kernel string, got, want []storage.RowID) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: got %d rowIDs, want %d", kernel, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: rowID[%d] = %d, want %d", kernel, i, got[i], want[i])
			return
		}
	}
}

// diffCase is one (data, predicates) instance of the property.
type diffCase struct {
	name  string
	data  []storage.Value
	preds []scan.Predicate
}

// corpusPreds covers the predicate edge cases for a value domain
// [0, domain): points that hit and miss, inverted (Lo > Hi) ranges that
// must select nothing, the full int32 domain that must select everything,
// and narrow/wide/boundary ranges.
func corpusPreds(domain storage.Value) []scan.Predicate {
	return []scan.Predicate{
		{Lo: 0, Hi: domain - 1},                // whole domain
		{Lo: math.MinInt32, Hi: math.MaxInt32}, // full int32 range
		{Lo: domain / 4, Hi: domain / 2},       // interior range
		{Lo: domain / 3, Hi: domain / 3},       // point, likely present
		{Lo: domain + 100, Hi: domain + 100},   // point, absent
		{Lo: domain / 2, Hi: domain / 4},       // inverted: empty
		{Lo: 10, Hi: 5},                        // inverted small
		{Lo: -1000, Hi: -1},                    // below the domain
		{Lo: domain, Hi: 2 * domain},           // above the domain
		{Lo: 0, Hi: 0},                         // boundary point
		{Lo: domain - 1, Hi: math.MaxInt32},    // upper boundary onward
	}
}

// corpus is the fixed differential corpus (the same shapes as
// internal/scan's): empty, single-tuple, and larger blocks in uniform,
// constant, sorted, and adversarial patterns, all over a small domain so
// the compressed twin stays buildable and point predicates actually hit.
func corpus() []diffCase {
	rng := rand.New(rand.NewSource(42))
	const domain = 4096
	mk := func(n int, gen func(i int) storage.Value) []storage.Value {
		d := make([]storage.Value, n)
		for i := range d {
			d[i] = gen(i)
		}
		return d
	}
	uniform := func(i int) storage.Value { return storage.Value(rng.Intn(domain)) }
	shapes := []diffCase{
		{name: "empty", data: nil},
		{name: "one_hit", data: []storage.Value{domain / 3}},
		{name: "one_miss", data: []storage.Value{domain - 1}},
		{name: "small_uniform", data: mk(5, uniform)},
		{name: "block_uniform", data: mk(100, uniform)},
		{name: "multi_block_uniform", data: mk(1000, uniform)},
		{name: "large_uniform", data: mk(16384, uniform)},
		{name: "all_equal", data: mk(777, func(int) storage.Value { return domain / 2 })},
		{name: "sorted", data: mk(1000, func(i int) storage.Value { return storage.Value(i % domain) })},
		{name: "reverse_sorted", data: mk(1000, func(i int) storage.Value { return storage.Value(domain - 1 - i%domain) })},
		{name: "clustered", data: mk(2048, func(i int) storage.Value { return storage.Value((i / 256) * 512) })},
		{name: "unroll_tail_7", data: mk(7, uniform)},
		{name: "unroll_edge_8", data: mk(8, uniform)},
		{name: "unroll_tail_17", data: mk(17, uniform)},
	}
	for i := range shapes {
		shapes[i].preds = corpusPreds(domain)
	}
	return shapes
}

// sourceKind names one (layout, pruner) combination of the block-kernel
// interface; build returns it over data, or nil when the combination
// cannot be built (an empty column has no compressed twin or imprints).
type sourceKind struct {
	name  string
	build func(t *testing.T, data []storage.Value, block int) Source
}

var sourceKinds = []sourceKind{
	{"raw", func(_ *testing.T, data []storage.Value, block int) Source {
		return scan.NewRaw(data, block, nil)
	}},
	{"strided", func(t *testing.T, data []storage.Value, block int) Source {
		other := make([]storage.Value, len(data))
		g, err := storage.NewColumnGroup([]string{"a", "b"}, [][]storage.Value{other, data})
		if err != nil {
			t.Fatal(err)
		}
		return scan.NewStrided(g.Column("b"), block, nil)
	}},
	{"packed", func(_ *testing.T, data []storage.Value, block int) Source {
		cc, err := storage.Compress(storage.NewColumn("v", data))
		if err != nil {
			return nil
		}
		return scan.NewPacked(cc, block, nil)
	}},
	{"raw+zonemap", func(_ *testing.T, data []storage.Value, block int) Source {
		// A zone size that does not divide the test block sizes, so
		// blocks straddle zones.
		return scan.NewRaw(data, block, storage.BuildZonemap(storage.NewColumn("v", data), 48))
	}},
	{"raw+imprints", func(_ *testing.T, data []storage.Value, block int) Source {
		imp, err := imprints.Build(storage.NewColumn("v", data))
		if err != nil {
			return nil
		}
		return scan.NewRaw(data, block, imp)
	}},
	{"packed+zonemap", func(_ *testing.T, data []storage.Value, block int) Source {
		col := storage.NewColumn("v", data)
		cc, err := storage.Compress(col)
		if err != nil {
			return nil
		}
		return scan.NewPacked(cc, block, storage.BuildZonemap(col, 100))
	}},
}

// TestDifferentialEverySourceThroughDriver runs every source kind,
// founders only, through the driver on a shared pool and arena over the
// whole corpus, against the naive reference — batches released between
// cases, so a cell transferred to a result while also returned to the
// arena (a double ownership bug) would corrupt a later case and fail
// the comparison.
func TestDifferentialEverySourceThroughDriver(t *testing.T) {
	pool := rt.NewPool(3, nil)
	defer pool.Close()
	arena := rt.NewArena(0, nil)
	for _, c := range corpus() {
		want := make([][]storage.RowID, len(c.preds))
		for i, p := range c.preds {
			want[i] = refFilter(c.data, p)
		}
		for _, k := range sourceKinds {
			for _, block := range []int{0, 7, 64} {
				src := k.build(t, c.data, block)
				if src == nil {
					continue
				}
				res, err := Run(context.Background(), pool, arena, src, c.preds, nil)
				if err != nil {
					t.Fatalf("%s/%s/block%d: %v", c.name, k.name, block, err)
				}
				for i := range c.preds {
					sameIDs(t, fmt.Sprintf("%s/%s/block%d/pred%d", c.name, k.name, block, i),
						res.RowIDs[i], want[i])
				}
				res.Release()
			}
		}
	}
}

// TestDifferentialPooledResultsSurviveLaterBatches is the aliasing
// guard: results of a live (unreleased) batch must not change when the
// arena serves later batches. If a buffer were handed out twice, the
// second batch would overwrite the first's rowIDs.
func TestDifferentialPooledResultsSurviveLaterBatches(t *testing.T) {
	pool := rt.NewPool(2, nil)
	defer pool.Close()
	arena := rt.NewArena(0, nil)
	data := make([]storage.Value, 50_000)
	for i := range data {
		data[i] = storage.Value(i % 1024)
	}
	src := scan.NewRaw(data, 0, nil)
	preds := []scan.Predicate{{Lo: 0, Hi: 99}, {Lo: 500, Hi: 1023}, {Lo: 7, Hi: 7}}

	live, err := Run(context.Background(), pool, arena, src, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([][]storage.RowID, len(live.RowIDs))
	for i, ids := range live.RowIDs {
		snapshot[i] = append([]storage.RowID(nil), ids...)
	}
	// Hammer the arena with different batches, releasing each.
	other := []scan.Predicate{{Lo: 0, Hi: 1023}, {Lo: 200, Hi: 300}}
	for round := 0; round < 10; round++ {
		res, err := Run(context.Background(), pool, arena, src, other, nil)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	for i := range live.RowIDs {
		sameIDs(t, fmt.Sprintf("live_batch/pred%d", i), live.RowIDs[i], snapshot[i])
	}
	live.Release()
}

// TestDifferentialPooledStrided pins the strided source through the
// driver against the reference on a column-group member (no raw view).
func TestDifferentialPooledStrided(t *testing.T) {
	pool := rt.NewPool(2, nil)
	defer pool.Close()
	arena := rt.NewArena(0, nil)
	for _, n := range []int{0, 1, 100, 3000} {
		a := make([]storage.Value, n)
		b := make([]storage.Value, n)
		for i := 0; i < n; i++ {
			a[i] = storage.Value(i % 97)
			b[i] = storage.Value((i * 31) % 512)
		}
		g, err := storage.NewColumnGroup([]string{"a", "b"}, [][]storage.Value{a, b})
		if err != nil {
			t.Fatalf("group(n=%d): %v", n, err)
		}
		col := g.Column("b")
		preds := corpusPreds(512)
		for _, block := range []int{0, 7} {
			res, err := Run(context.Background(), pool, arena, scan.NewStrided(col, block, nil), preds, nil)
			if err != nil {
				t.Fatalf("n%d/block%d: %v", n, block, err)
			}
			for i, p := range preds {
				sameIDs(t, fmt.Sprintf("n%d/SharedStridedPool/block%d/pred%d", n, block, i),
					res.RowIDs[i], refFilter(b, p))
			}
			res.Release()
		}
	}
}

func randomData(seed int64, n int, domain int32) []storage.Value {
	rng := rand.New(rand.NewSource(seed))
	data := make([]storage.Value, n)
	for i := range data {
		data[i] = rng.Int31n(domain)
	}
	return data
}

func randomPreds(seed int64, q int, domain int32, width int32) []scan.Predicate {
	rng := rand.New(rand.NewSource(seed))
	preds := make([]scan.Predicate, q)
	for i := range preds {
		lo := rng.Int31n(domain)
		preds[i] = scan.Predicate{Lo: lo, Hi: lo + rng.Int31n(width)}
	}
	return preds
}

func TestSharedParallelMatchesShared(t *testing.T) {
	data := randomData(4, 80000, 1<<16)
	preds := randomPreds(5, 16, 1<<16, 2000)
	for _, workers := range []int{1, 2, 3, 8, 32} {
		pool := rt.NewPool(workers, nil)
		results, err := Run(context.Background(), pool, nil, scan.NewRaw(data, 0, nil), preds, nil)
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		for qi, p := range preds {
			want := refFilter(data, p)
			if !sameRowIDs(results.RowIDs[qi], want) {
				t.Fatalf("workers=%d query %d disagrees", workers, qi)
			}
		}
	}
}

func TestSharedParallelMoreWorkersThanQueries(t *testing.T) {
	data := randomData(6, 10000, 1000)
	preds := randomPreds(7, 2, 1000, 100)
	pool := rt.NewPool(16, nil)
	defer pool.Close()
	results, err := Run(context.Background(), pool, nil, scan.NewRaw(data, 0, nil), preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	for qi, p := range preds {
		if !sameRowIDs(results.RowIDs[qi], refFilter(data, p)) {
			t.Fatalf("query %d disagrees", qi)
		}
	}
}

func TestParallelResultsInRowIDOrder(t *testing.T) {
	data := randomData(9, 1<<18, 1<<10)
	p := scan.Predicate{Lo: 0, Hi: 512}
	pool := rt.NewPool(7, nil)
	defer pool.Close()
	res, err := Run(context.Background(), pool, nil, scan.NewRaw(data, 0, nil), []scan.Predicate{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := res.RowIDs[0]
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("rowIDs out of order at %d: %d after %d", i, got[i], got[i-1])
		}
	}
}

func TestSharedPoolCancellation(t *testing.T) {
	pool := rt.NewPool(2, nil)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data := make([]storage.Value, 100_000)
	_, err := Run(ctx, pool, nil, scan.NewRaw(data, 0, nil), []scan.Predicate{{Lo: 0, Hi: 1}}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFoundersCancelledMidPassEverySource pins cancellation between
// work units for every source kind — the zonemap- and imprint-pruned
// scans included, which used to run to completion: the founders'
// context dies at the second block, the pass answers with its error,
// and the blocks it had not reached are never scanned.
func TestFoundersCancelledMidPassEverySource(t *testing.T) {
	data := testData(2048, 11) // 32 blocks
	preds := []scan.Predicate{{Lo: 0, Hi: 999}, {Lo: 100, Hi: 300}}
	for _, k := range sourceKinds {
		ctx, cancel := context.WithCancel(context.Background())
		src := newCountingSource(k.build(t, data, tBlock))
		m := NewManager(Options{BlockHook: func(_ string, b int) {
			if b == 1 {
				cancel()
			}
		}})
		_, _, err := m.Run(ctx, "t\x00a", nil, nil, src, preds, nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", k.name, err)
		}
		scanned := len(src.scans[src.Bind(preds[0])])
		if scanned == 0 || scanned >= src.Blocks() {
			t.Fatalf("%s: cancelled pass scanned %d of %d blocks, want a strict prefix", k.name, scanned, src.Blocks())
		}
	}
}

// TestSharedPoolZeroAlloc pins the tentpole's allocation contract: the
// steady-state batch path — job checkout, morsel dispatch over the
// pool, arena buffer checkout sized by honest hints, assembly, release
// — allocates nothing per batch.
func TestSharedPoolZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run without -race")
	}
	pool := rt.NewPool(2, nil)
	defer pool.Close()
	arena := rt.NewArena(0, nil)
	const n = 64 * 1024
	data := make([]storage.Value, n)
	for i := range data {
		data[i] = storage.Value(i % 1000)
	}
	preds := []scan.Predicate{
		{Lo: 0, Hi: 199}, {Lo: 100, Hi: 149}, {Lo: 500, Hi: 999}, {Lo: 42, Hi: 42},
	}
	hints := make([]int, len(preds))
	for i, p := range preds {
		hints[i] = len(refFilter(data, p))
	}
	cc, err := storage.Compress(storage.NewColumn("v", data))
	if err != nil {
		t.Fatal(err)
	}
	// The engine's shape, not only the tools': a metered manager, the
	// pass published under a key with attach sought (so the registry is
	// written and units yield), and a cancellable batch context, as
	// every server batch has.
	m := NewManager(Options{Metrics: obs.NewRegistry()})
	m.Progress("t\x00a")
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The packed source is the SWAR guard: code bounds bind at admission
	// into the pooled pass, so the packed batch allocates nothing either.
	for name, src := range map[string]Source{
		"raw":    scan.NewRaw(data, 0, nil),
		"packed": scan.NewPacked(cc, 0, nil),
	} {
		for mode, run := range map[string]func() (*rt.Results, error){
			"unpublished": func() (*rt.Results, error) {
				return Run(context.Background(), pool, arena, src, preds, hints)
			},
			"published": func() (*rt.Results, error) {
				res, _, err := m.Run(cctx, "t\x00a", pool, arena, src, preds, hints)
				return res, err
			},
		} {
			batch := func() {
				res, err := run()
				if err != nil {
					t.Fatal(err)
				}
				res.Release()
			}
			for i := 0; i < 8; i++ { // warm the pool deques, pass pool and arena
				batch()
			}
			if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
				t.Errorf("%s/%s: pooled shared-scan batch allocates %.1f per run, want 0", name, mode, allocs)
			}
		}
	}
}

// TestUnitsYieldOnlyOnceAttachIsSought: a manager nobody has asked for
// a pass to attach to runs its passes back to back, as the plain shared
// scan always did — yielding between units interleaves overlapping
// batches and makes a server with a low in-flight cap shed early. The
// first Progress or Attach call (a Cooperative server's hook makes one
// per submission) turns the yield on.
func TestUnitsYieldOnlyOnceAttachIsSought(t *testing.T) {
	src := scan.NewRaw(testData(4096, 3), 64, nil)
	preds := []scan.Predicate{{Lo: 0, Hi: 10}}
	for name, seek := range map[string]func(m *Manager){
		"progress": func(m *Manager) { m.Progress("k") },
		"attach": func(m *Manager) {
			m.Attach(context.Background(), "k", preds[0], 0, 0, 0, 0, func([]storage.RowID, error) {})
		},
	} {
		m := NewManager(Options{})
		if _, _, err := m.Run(context.Background(), "k", nil, nil, src, preds, nil); err != nil {
			t.Fatal(err)
		}
		if m.sought.Load() {
			t.Fatalf("%s: running a pass alone marked attach as sought", name)
		}
		seek(m)
		if !m.sought.Load() {
			t.Fatalf("%s: seeking a pass did not turn the unit yield on", name)
		}
	}
}

// clusteredData is half sorted (so zonemaps and imprints prune there)
// and half uniform (so they mostly cannot), over the same [0, 1000)
// domain as testData.
func clusteredData(n int, seed int64) []storage.Value {
	data := testData(n, seed)
	for i := 0; i < n/2; i++ {
		data[i] = storage.Value(i * 1000 / (n / 2))
	}
	return data
}

// liveBlocks lists the blocks src cannot prune for pred — the blocks a
// query must see exactly once.
func liveBlocks(src Source, pred scan.Predicate) []int {
	var out []int
	for b := 0; b < src.Blocks(); b++ {
		if !src.Prune(b, pred) {
			out = append(out, b)
		}
	}
	return out
}

// TestDifferentialAttachEverySource is the one table-driven suite that
// runs every source kind through the driver against scan.Shared, for
// every attach scenario: founders only, attach at the first, a middle
// and the last block, attach during the wrap-around, and simultaneous
// multi-attach. Founders and attachers must equal the serial reference
// and every query must see each block its pruner leaves exactly once.
func TestDifferentialAttachEverySource(t *testing.T) {
	data := clusteredData(1280, 21) // 20 blocks
	founders := []scan.Predicate{{Lo: 0, Hi: 299}, {Lo: 600, Hi: 999}}
	scenarios := []struct {
		name    string
		attach  func() []*attachSpec
		wrapped bool
	}{
		{"founders_only", func() []*attachSpec { return nil }, false},
		{"first_block", func() []*attachSpec {
			return []*attachSpec{{trigger: 0, pred: scan.Predicate{Lo: 100, Hi: 700}}}
		}, true},
		{"middle_block", func() []*attachSpec {
			return []*attachSpec{{trigger: 9, pred: scan.Predicate{Lo: 100, Hi: 700}}}
		}, true},
		{"last_block", func() []*attachSpec {
			return []*attachSpec{{trigger: 19, pred: scan.Predicate{Lo: 100, Hi: 700}}}
		}, true},
		{"during_wrap", func() []*attachSpec {
			return []*attachSpec{
				{trigger: 12, pred: scan.Predicate{Lo: 50, Hi: 450}},
				{trigger: 10, onWrap: true, pred: scan.Predicate{Lo: 200, Hi: 800}},
			}
		}, true},
		{"multi_attach", func() []*attachSpec {
			return []*attachSpec{
				{trigger: 13, pred: scan.Predicate{Lo: 10, Hi: 500}},
				{trigger: 13, pred: scan.Predicate{Lo: 400, Hi: 420}},
				{trigger: 13, pred: scan.Predicate{Lo: 1, Hi: 998}},
			}
		}, true},
	}
	for _, k := range sourceKinds {
		for _, sc := range scenarios {
			name := k.name + "/" + sc.name
			as := sc.attach()
			res, src, _, reg := runSourceWithAttach(t, k.build(t, data, tBlock), founders, as)
			all := append([]scan.Predicate(nil), founders...)
			for _, a := range as {
				all = append(all, a.pred)
			}
			want := scan.Shared(data, all, tBlock)
			for i, p := range founders {
				if !sameRowIDs(res.RowIDs[i], want[i]) {
					t.Fatalf("%s: founder %d diverged", name, i)
				}
				src.assertExactlyOnce(t, p, liveBlocks(src, p))
			}
			for i, a := range as {
				if !a.attached {
					t.Fatalf("%s: attacher %d never attached", name, i)
				}
				if a.err != nil || !sameRowIDs(a.rowIDs, want[len(founders)+i]) {
					t.Fatalf("%s: attacher %d: err=%v rows=%d want=%d", name, i, a.err, len(a.rowIDs), len(want[len(founders)+i]))
				}
				src.assertExactlyOnce(t, a.pred, liveBlocks(src, a.pred))
			}
			if got := reg.Counter("coop.attach").Load(); got != int64(len(as)) {
				t.Fatalf("%s: coop.attach = %d, want %d", name, got, len(as))
			}
			if wrapped := reg.Counter("coop.wrap_blocks").Load() > 0; wrapped != sc.wrapped {
				t.Fatalf("%s: wrapped = %v, want %v", name, wrapped, sc.wrapped)
			}
			res.Release()
		}
	}
}

// TestCancelledAttacherEverySource: an attacher whose context dies
// mid-pass is answered with the context's error and dropped, on every
// source kind, without disturbing the founders.
func TestCancelledAttacherEverySource(t *testing.T) {
	data := clusteredData(1280, 22)
	founders := []scan.Predicate{{Lo: 0, Hi: 999}}
	for _, k := range sourceKinds {
		ctx, cancel := context.WithCancel(context.Background())
		var m *Manager
		var repErr error
		delivered := make(chan struct{})
		attached := false
		m = NewManager(Options{BlockHook: func(key string, b int) {
			switch {
			case b == 3 && !attached:
				attached = true
				if !m.Attach(ctx, key, scan.Predicate{Lo: 0, Hi: 999}, 0.5, 0, 0, 0,
					func(_ []storage.RowID, err error) {
						repErr = err
						close(delivered)
					}) {
					t.Errorf("%s: attach rejected", k.name)
					close(delivered)
				}
			case b == 7:
				cancel()
			}
		}})
		res, attachedN, err := m.Run(context.Background(), "t\x00a", nil, nil, k.build(t, data, tBlock), founders, nil)
		cancel()
		if err != nil {
			t.Fatalf("%s: Run: %v", k.name, err)
		}
		<-delivered
		if !errors.Is(repErr, context.Canceled) {
			t.Fatalf("%s: attacher reply error = %v, want context.Canceled", k.name, repErr)
		}
		if attachedN != 1 {
			t.Fatalf("%s: Run reported %d attached, want 1", k.name, attachedN)
		}
		if want := scan.Shared(data, founders, tBlock); !sameRowIDs(res.RowIDs[0], want[0]) {
			t.Fatalf("%s: founder rows diverged after mid-pass cancellation", k.name)
		}
		res.Release()
	}
}
