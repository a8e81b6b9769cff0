package fastcolumns

import (
	"context"
	"runtime"
	"testing"
	"time"

	"fastcolumns/internal/faultinject"
	"fastcolumns/internal/loadgen"
	rt "fastcolumns/internal/runtime"
	"fastcolumns/internal/scan"
	"fastcolumns/internal/workload"
)

// loadOptions builds the loadgen options the integration suite submits
// with: the chaosEngine table, a mixed-selectivity stream, and a
// generous per-query deadline so only genuine overload cancels ops.
func loadOptions(mix loadgen.Mix, timeout time.Duration) loadgen.Options {
	return loadgen.Options{
		Table: "t", Attr: "a", Domain: 5000,
		Mix: mix, Timeout: timeout, Seed: 3,
	}
}

// TestLoadHarnessClosedLoopConservation drives a live server with the
// closed-loop driver and checks the full contract: the conservation
// ledger balances, the server's own counters agree with the driver's,
// and no goroutine outlives the run.
func TestLoadHarnessClosedLoopConservation(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, _ := chaosEngine(t)
	srv := eng.Serve(ServeOptions{Window: 200 * time.Microsecond, MaxPending: 128, MaxInFlight: 8})

	res := loadgen.RunClosed(context.Background(), srv, loadOptions(loadgen.MixedMix(), time.Second),
		loadgen.ClosedLoop{Workers: 8, Duration: 300 * time.Millisecond})

	if !res.Conserved() {
		t.Fatalf("ledger does not balance: %+v", res.Counts)
	}
	if res.Replied == 0 {
		t.Fatal("closed loop produced no successful replies")
	}
	st := srv.ServerStats()
	if st.Submitted != res.Accepted {
		t.Fatalf("server admitted %d, driver accepted %d", st.Submitted, res.Accepted)
	}
	if st.Rejected != res.Shed {
		t.Fatalf("server shed %d, driver counted %d", st.Rejected, res.Shed)
	}
	srv.Close()
	eng.Close()
	waitGoroutines(t, base)
}

// TestLoadHarnessOpenLoopConservation is the open-loop twin: arrivals on
// a Poisson schedule, every virtual client drained before the run
// returns, ledger and server counters reconciled, zero leaks.
func TestLoadHarnessOpenLoopConservation(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, _ := chaosEngine(t)
	srv := eng.Serve(ServeOptions{Window: 200 * time.Microsecond, MaxPending: 128, MaxInFlight: 8})

	res := loadgen.RunOpen(context.Background(), srv, loadOptions(loadgen.PointMix(), time.Second),
		loadgen.OpenLoop{Rate: 2000, Duration: 300 * time.Millisecond, Dist: loadgen.Poisson})

	if !res.Conserved() {
		t.Fatalf("ledger does not balance: %+v", res.Counts)
	}
	if res.Replied == 0 {
		t.Fatal("open loop produced no successful replies")
	}
	st := srv.ServerStats()
	if st.Submitted != res.Accepted || st.Rejected != res.Shed {
		t.Fatalf("server stats (submitted %d, rejected %d) disagree with driver (accepted %d, shed %d)",
			st.Submitted, st.Rejected, res.Accepted, res.Shed)
	}
	srv.Close()
	eng.Close()
	waitGoroutines(t, base)
}

// TestLoadHarnessShedsPastSaturation pins the overload contract the
// bench gate relies on: with execution artificially slowed and tight
// admission bounds, an open-loop rate far past capacity must trip
// ErrOverloaded shedding — and every shed op must still be accounted.
func TestLoadHarnessShedsPastSaturation(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, _ := chaosEngine(t)
	srv := eng.Serve(ServeOptions{Window: 200 * time.Microsecond, MaxPending: 8, MaxInFlight: 1})

	deactivate := faultinject.Activate(faultinject.New(1,
		faultinject.Rule{Site: "exec.run", Kind: faultinject.Delay, Delay: 5 * time.Millisecond}))
	defer deactivate()

	res := loadgen.RunOpen(context.Background(), srv, loadOptions(loadgen.PointMix(), 100*time.Millisecond),
		loadgen.OpenLoop{Rate: 3000, Duration: 300 * time.Millisecond, Dist: loadgen.Deterministic})

	if res.Shed == 0 {
		t.Fatalf("no shedding at 3000/s against a ~200/s server: %+v", res.Counts)
	}
	if !res.Conserved() {
		t.Fatalf("ledger does not balance under overload: %+v", res.Counts)
	}
	st := srv.ServerStats()
	if st.Rejected != res.Shed {
		t.Fatalf("server shed %d, driver counted %d", st.Rejected, res.Shed)
	}
	srv.Close()
	eng.Close()
	waitGoroutines(t, base)
}

// TestLoadChaosUnderFaults runs the open loop while probabilistic faults
// fire at two layers at once — worker-pool morsels panic and packed
// materialization errors. The contract: no reply is lost or doubled (the ledger
// balances and the server's counters reconcile exactly), and the
// process winds down to the baseline goroutine count.
func TestLoadChaosUnderFaults(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := New(Config{})
	defer eng.Close()
	tbl, err := eng.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	const n, domain = 20000, 5000
	if err := tbl.AddColumn("a", workload.Uniform(1, n, domain)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Analyze("a", 64); err != nil {
		t.Fatal(err)
	}
	srv := eng.Serve(ServeOptions{Window: 200 * time.Microsecond, MaxPending: 64, MaxInFlight: 4})

	deactivate := faultinject.Activate(faultinject.New(7,
		faultinject.Rule{Site: rt.FaultSiteMorsel, Kind: faultinject.Panic, Prob: 0.01},
		faultinject.Rule{Site: scan.FaultSiteMaterialize, Kind: faultinject.Error, Prob: 0.02},
	))
	defer deactivate()

	res := loadgen.RunOpen(context.Background(), srv, loadOptions(loadgen.MixedMix(), time.Second),
		loadgen.OpenLoop{Rate: 1500, Duration: 400 * time.Millisecond, Dist: loadgen.Poisson})

	if !res.Conserved() {
		t.Fatalf("ledger does not balance under chaos: %+v", res.Counts)
	}
	if res.Replied == 0 {
		t.Fatal("chaos run produced no successful replies at all")
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
