package fastcolumns

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"fastcolumns/internal/faultinject"
	"fastcolumns/internal/loadgen"
	rt "fastcolumns/internal/runtime"
	"fastcolumns/internal/workload"
)

// coopEngine builds a scan-only table (no index, so APS always picks the
// shared scan and every batch is a cooperative pass) and returns the
// engine plus the raw column for reference answers.
func coopEngine(t *testing.T, n int) (*Engine, []Value) {
	t.Helper()
	eng := New(Config{})
	t.Cleanup(eng.Close)
	tbl, err := eng.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	data := workload.Uniform(1, n, 5000)
	if err := tbl.AddColumn("a", data); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Analyze("a", 64); err != nil {
		t.Fatal(err)
	}
	return eng, data
}

func refRowIDs(data []Value, p Predicate) []RowID {
	var out []RowID
	for i, v := range data {
		if v >= p.Lo && v <= p.Hi {
			out = append(out, RowID(i))
		}
	}
	return out
}

// TestCoopServeAttachEndToEnd pins the serve-path attach flow: morsel
// scans are slowed by fault injection so the founding pass is reliably
// in flight when a second query arrives; the late query must be adopted
// mid-pass (Stats.Attached), skip the batch machinery, and still answer
// exactly.
func TestCoopServeAttachEndToEnd(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, data := coopEngine(t, 1<<18) // 16 blocks at the default block size
	srv := eng.Serve(ServeOptions{Window: time.Millisecond, Cooperative: true})

	deactivate := faultinject.Activate(faultinject.New(1, faultinject.Rule{
		Site: rt.FaultSiteMorsel, Kind: faultinject.Delay, Delay: 2 * time.Millisecond,
	}))

	founderPred := Predicate{Lo: 0, Hi: 999}
	founderCh, err := srv.Submit("t", "a", founderPred)
	if err != nil {
		t.Fatal(err)
	}
	// Wait out the window plus a few delayed morsels so the pass is
	// mid-flight, then submit the late query.
	time.Sleep(8 * time.Millisecond)
	latePred := Predicate{Lo: 2000, Hi: 2499}
	lateCh, err := srv.Submit("t", "a", latePred)
	if err != nil {
		t.Fatal(err)
	}
	lateRep := <-lateCh
	founderRep := <-founderCh
	deactivate()

	if founderRep.Err != nil || lateRep.Err != nil {
		t.Fatalf("replies errored: founder=%v late=%v", founderRep.Err, lateRep.Err)
	}
	for name, got := range map[string][]RowID{"founder": founderRep.RowIDs, "late": lateRep.RowIDs} {
		want := refRowIDs(data, founderPred)
		if name == "late" {
			want = refRowIDs(data, latePred)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d = %d, want %d", name, i, got[i], want[i])
			}
		}
	}
	st := srv.ServerStats()
	if st.Attached == 0 {
		t.Fatal("late query was not adopted mid-pass (Attached == 0)")
	}
	if st.Submitted != 2 {
		t.Fatalf("Submitted = %d, want 2", st.Submitted)
	}
	if got := eng.Observer().Metrics.Counter("coop.attach").Load(); got == 0 {
		t.Fatal("coop.attach counter did not record the adoption")
	}
	srv.Close()
	eng.Close()
	waitGoroutines(t, base)
}

// TestCoopChaosUnderLoad extends the chaos-under-load contract to the
// cooperative path: open-loop traffic against a Cooperative server while
// attach faults (error, panic, delay) and morsel panics fire. Attach
// failures must degrade to next-window semantics — every op still
// answered exactly once, ledger balanced, counters reconciled, zero
// goroutine leaks.
func TestCoopChaosUnderLoad(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, _ := coopEngine(t, 20000)
	srv := eng.Serve(ServeOptions{
		Window: 200 * time.Microsecond, MaxPending: 64, MaxInFlight: 4, Cooperative: true,
	})

	deactivate := faultinject.Activate(faultinject.New(11,
		faultinject.Rule{Site: "coop.attach", Kind: faultinject.Error, Prob: 0.2},
		faultinject.Rule{Site: "coop.attach", Kind: faultinject.Panic, Prob: 0.1},
		faultinject.Rule{Site: "coop.attach", Kind: faultinject.Delay, Prob: 0.1, Delay: 200 * time.Microsecond},
		faultinject.Rule{Site: rt.FaultSiteMorsel, Kind: faultinject.Panic, Prob: 0.005},
	))
	defer deactivate()

	res := loadgen.RunOpen(context.Background(), srv,
		loadgen.Options{Table: "t", Attr: "a", Domain: 5000, Mix: loadgen.MixedMix(), Timeout: time.Second, Seed: 3},
		loadgen.OpenLoop{Rate: 1500, Duration: 400 * time.Millisecond, Dist: loadgen.Poisson})

	if !res.Conserved() {
		t.Fatalf("ledger does not balance under coop chaos: %+v", res.Counts)
	}
	if res.Replied == 0 {
		t.Fatal("coop chaos run produced no successful replies at all")
	}
	st := srv.ServerStats()
	if st.Submitted != res.Accepted {
		t.Fatalf("server admitted %d, driver accepted %d (lost or doubled replies)", st.Submitted, res.Accepted)
	}
	if st.Rejected != res.Shed {
		t.Fatalf("server shed %d, driver counted %d", st.Rejected, res.Shed)
	}
	if st.Cancelled != res.Cancelled {
		t.Fatalf("server cancelled %d, driver counted %d", st.Cancelled, res.Cancelled)
	}
	deactivate()
	srv.Close()
	eng.Close()
	waitGoroutines(t, base)
}

// TestCoopCancelledSubmitterAnsweredMidPass covers the serve-side of the
// eager-drop satellite: a submitter whose context dies while its adopted
// query rides a slowed pass is answered promptly with the context error,
// well before the pass finishes.
func TestCoopCancelledSubmitterAnsweredMidPass(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, _ := coopEngine(t, 1<<18)
	srv := eng.Serve(ServeOptions{Window: time.Millisecond, Cooperative: true})

	deactivate := faultinject.Activate(faultinject.New(2, faultinject.Rule{
		Site: rt.FaultSiteMorsel, Kind: faultinject.Delay, Delay: 2 * time.Millisecond,
	}))

	founderCh, err := srv.Submit("t", "a", Predicate{Lo: 0, Hi: 999})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(8 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	lateCh, err := srv.SubmitContext(ctx, "t", "a", Predicate{Lo: 0, Hi: 4999})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	start := time.Now()
	lateRep := <-lateCh
	promptly := time.Since(start) < 5*time.Millisecond // pass has ~20ms of delayed morsels left
	if !errors.Is(lateRep.Err, context.Canceled) {
		t.Fatalf("cancelled submitter reply = %v, want context.Canceled", lateRep.Err)
	}
	if !promptly {
		t.Fatal("cancelled submitter waited for the pass instead of being answered promptly")
	}
	if rep := <-founderCh; rep.Err != nil {
		t.Fatalf("founder errored after sibling cancellation: %v", rep.Err)
	}
	deactivate()
	st := srv.ServerStats()
	if st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", st.Cancelled)
	}
	srv.Close()
	eng.Close()
	waitGoroutines(t, base)
}

// slowedAttach drives the attach flow on a Cooperative server over
// eng's table t.a: morsels are slowed by fault injection so the founding
// pass is reliably in flight when the late query arrives. It returns
// both replies and the server's stats.
func slowedAttach(t *testing.T, eng *Engine, founder, late Predicate) (founderRep, lateRep Reply, st ServerStats) {
	t.Helper()
	srv := eng.Serve(ServeOptions{Window: time.Millisecond, Cooperative: true})
	defer srv.Close()
	deactivate := faultinject.Activate(faultinject.New(1, faultinject.Rule{
		Site: rt.FaultSiteMorsel, Kind: faultinject.Delay, Delay: 2 * time.Millisecond,
	}))
	defer deactivate()
	founderCh, err := srv.Submit("t", "a", founder)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(8 * time.Millisecond) // the window plus a few delayed units
	lateCh, err := srv.Submit("t", "a", late)
	if err != nil {
		t.Fatal(err)
	}
	lateRep, founderRep = <-lateCh, <-founderCh
	return founderRep, lateRep, srv.ServerStats()
}

// TestCoopAttachOverCompressedColumn: cooperative passes run over the
// packed SWAR source too — a late query is adopted mid-pass on a
// compressed column, the decision names the SWAR kernel, and both
// answers equal a naive filter.
func TestCoopAttachOverCompressedColumn(t *testing.T) {
	eng, data := coopEngine(t, 1<<19) // 16 blocks of packed codes
	tbl, err := eng.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Compress("a"); err != nil {
		t.Fatal(err)
	}
	founder, late := Predicate{Lo: 0, Hi: 999}, Predicate{Lo: 2000, Hi: 2499}
	founderRep, lateRep, st := slowedAttach(t, eng, founder, late)
	if founderRep.Err != nil || lateRep.Err != nil {
		t.Fatalf("replies errored: founder=%v late=%v", founderRep.Err, lateRep.Err)
	}
	if !equalIDs(founderRep.RowIDs, refRowIDs(data, founder)) {
		t.Fatal("founder rows differ from a naive filter")
	}
	if !equalIDs(lateRep.RowIDs, refRowIDs(data, late)) {
		t.Fatal("attached query's rows differ from a naive filter")
	}
	if st.Attached == 0 {
		t.Fatal("late query was not adopted mid-pass over the compressed column (Attached == 0)")
	}
	d, err := tbl.Explain("a", []Predicate{founder})
	if err != nil {
		t.Fatal(err)
	}
	if d.Path != PathScan || d.ScanKernel != "swar" {
		t.Fatalf("decision = %v/%q, want scan/swar", d.Path, d.ScanKernel)
	}
	trace := eng.Observe().Decisions
	if last := trace[len(trace)-1]; last.Path != "coop(swar)" || last.Kernel != "swar" {
		t.Fatalf("adopting pass traced as %q/%q, want coop(swar)/swar", last.Path, last.Kernel)
	}
}

// driftBatches sums the drift cells' batch counts.
func driftBatches(eng *Engine) int64 {
	var n int64
	for _, c := range eng.Observe().Drift.Cells {
		n += c.Count
	}
	return n
}

// TestCoopDriftSeesCleanPasses: with Cooperative on, a pass nobody
// attached to is a clean measurement and reaches the drift cells; a pass
// that adopted a query is traced under its coop(...) name and kept out of
// them.
func TestCoopDriftSeesCleanPasses(t *testing.T) {
	eng, _ := coopEngine(t, 1<<18)
	_, _, st := slowedAttach(t, eng, Predicate{Lo: 0, Hi: 999}, Predicate{Lo: 2000, Hi: 2499})
	if st.Attached == 0 {
		t.Fatal("late query was not adopted mid-pass")
	}
	trace := eng.Observe().Decisions
	if last := trace[len(trace)-1]; last.Path != "coop(shared)" {
		t.Fatalf("adopting pass traced as %q, want coop(shared)", last.Path)
	}
	if n := driftBatches(eng); n != 0 {
		t.Fatalf("adopting pass reached the drift cells (%d batches recorded)", n)
	}
	if got := eng.Observer().Metrics.Counter("engine.coop_batches").Load(); got != 1 {
		t.Fatalf("engine.coop_batches = %d, want 1", got)
	}

	srv := eng.Serve(ServeOptions{Window: time.Hour, Cooperative: true})
	defer srv.Close()
	ch, err := srv.Submit("t", "a", Predicate{Lo: 0, Hi: 999})
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush("t", "a")
	if r := <-ch; r.Err != nil {
		t.Fatal(r.Err)
	}
	trace = eng.Observe().Decisions
	if last := trace[len(trace)-1]; last.Path != "scan" {
		t.Fatalf("clean pass traced as %q, want scan", last.Path)
	}
	if n := driftBatches(eng); n != 1 {
		t.Fatalf("clean cooperative pass not recorded in the drift cells (%d batches)", n)
	}
}

// TestCoopPointBatchDecidedOnce: a Cooperative server routes a batch in
// one place, so a point batch that APS sends to the index is decided —
// and counted — exactly once.
func TestCoopPointBatchDecidedOnce(t *testing.T) {
	eng, tbl := chaosEngine(t)
	srv := eng.Serve(ServeOptions{Window: time.Hour, Cooperative: true})
	defer srv.Close()
	m := eng.Observer().Metrics
	chose, decides := m.Counter("optimizer.chose.index").Load(), eng.Observe().Metrics.Histograms["optimizer.decide_ns"].Count
	ch, err := srv.Submit("t", "a", Predicate{Lo: 7, Hi: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush("t", "a")
	r := <-ch
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	want, _ := tbl.SelectVia(PathScan, "a", []Predicate{{Lo: 7, Hi: 7}})
	if !equalIDs(r.RowIDs, want.RowIDs[0]) {
		t.Fatal("point answer differs from a scan")
	}
	if got := m.Counter("optimizer.chose.index").Load() - chose; got != 1 {
		t.Fatalf("optimizer.chose.index rose by %d for one point batch, want 1", got)
	}
	if got := eng.Observe().Metrics.Histograms["optimizer.decide_ns"].Count - decides; got != 1 {
		t.Fatalf("optimizer.decide_ns recorded %d decisions for one batch, want 1", got)
	}
}
