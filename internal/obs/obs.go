// Package obs is the engine's zero-dependency observability layer: a
// metrics registry (atomic counters, gauges, and log-bucketed latency
// histograms with mergeable snapshots), a bounded ring buffer of access
// path decisions, and model-drift accounting that compares the cost
// model's predictions against measured batch runtimes per (path,
// selectivity-band) cell.
//
// The paper's central claim is that access path selection must be
// re-evaluated per batch because the scan/probe break-even point moves
// with concurrency (Section 3); this package makes those per-batch
// decisions visible to an operator — what q and selectivity mix the
// model is seeing, which path it picked and why, and whether the fitted
// constants (Appendix C) still describe this host or a re-calibration
// through internal/fit is due.
//
// Recording is designed for the hot path: counter adds and histogram
// records are single atomic operations, trace appends copy one fixed-
// size struct under a mutex, and none of them allocate once warm (the
// allocation-regression tests pin this down).
package obs

// Observer bundles the observability surfaces the engine threads
// through its serve path. One Observer is shared by an Engine and every
// Server over it.
type Observer struct {
	// Metrics is the named counter/gauge/histogram registry.
	Metrics *Registry
	// Trace is the bounded ring of recent access path decisions.
	Trace *DecisionTrace
	// Drift accumulates predicted-vs-measured cost ratios per
	// (path, selectivity-band) cell.
	Drift *Drift
}

// NewObserver builds an observer whose decision trace keeps the last
// traceCap batches (traceCap <= 0 selects the default of 1024).
func NewObserver(traceCap int) *Observer {
	return &Observer{
		Metrics: NewRegistry(),
		Trace:   NewDecisionTrace(traceCap),
		Drift:   NewDrift(DefaultDriftThreshold),
	}
}

// Snapshot is a point-in-time copy of everything the observer holds;
// it is safe to serialize or inspect while recording continues.
type Snapshot struct {
	Metrics   RegistrySnapshot `json:"metrics"`
	Decisions []TraceEntry     `json:"decisions"`
	Drift     DriftReport      `json:"drift"`
}

// Snapshot captures the current state of all surfaces.
func (o *Observer) Snapshot() Snapshot {
	return Snapshot{
		Metrics:   o.Metrics.Snapshot(),
		Decisions: o.Trace.Snapshot(0),
		Drift:     o.Drift.Report(),
	}
}
