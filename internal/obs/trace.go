package obs

import (
	"sync"
	"time"
)

// TraceSelCap is how many per-query selectivity estimates a trace entry
// holds inline. Entries are fixed-size so appends never allocate; for
// batches wider than this the first TraceSelCap estimates are kept and
// the min/max/total summary still describes the whole batch.
const TraceSelCap = 8

// TraceEntry records one executed batch: what the optimizer saw, what it
// predicted, what it chose, and what execution actually cost. This is
// the per-batch record Section 3's "continuous data collection" implies
// but the paper never surfaces.
type TraceEntry struct {
	// Seq is the entry's monotonically increasing sequence number; gaps
	// in a snapshot mean the ring wrapped between reads.
	Seq int64 `json:"seq"`
	// At is when the batch finished executing.
	At time.Time `json:"at"`
	// Table and Attr name the (table, attribute) stream.
	Table string `json:"table"`
	Attr  string `json:"attr"`
	// Q is the batch width — the concurrency the APS model exploited.
	Q int `json:"q"`
	// N and TupleSize are the relation's tuple count and width in bytes as
	// the model saw them — together with Q and the selectivity summary they
	// make the entry replayable as a fit.Observation.
	N         int     `json:"n"`
	TupleSize float64 `json:"tuple_size"`
	// Path is the chosen access path ("scan", "index", "bitmap").
	Path string `json:"path"`
	// Kernel names the scan kernel the model costed ("shared" or "swar");
	// empty for non-scan paths on old entries.
	Kernel string `json:"kernel,omitempty"`
	// Forced is true when only one path existed.
	Forced bool `json:"forced"`
	// Ratio is the APS value (ConcIndex/SharedScan); >= 1 selects the scan.
	Ratio float64 `json:"ratio"`
	// PredScanCost, PredIndexCost and PredChosenCost are the model's
	// predicted wall times in seconds (0 when the path did not exist).
	PredScanCost   float64 `json:"pred_scan_cost"`
	PredIndexCost  float64 `json:"pred_index_cost"`
	PredChosenCost float64 `json:"pred_chosen_cost"`
	// Elapsed is the measured execution wall time of the batch.
	Elapsed time.Duration `json:"elapsed_ns"`
	// SelCount is how many of Sel are valid (min(Q, TraceSelCap)); SelMin,
	// SelMax and SelTotal summarize all Q estimates.
	SelCount int                  `json:"sel_count"`
	Sel      [TraceSelCap]float64 `json:"sel"`
	SelMin   float64              `json:"sel_min"`
	SelMax   float64              `json:"sel_max"`
	SelTotal float64              `json:"sel_total"`
}

// SetSelectivities fills the entry's selectivity fields from the
// per-query estimates without allocating.
func (e *TraceEntry) SetSelectivities(sel []float64) {
	e.SelCount = 0
	e.SelMin, e.SelMax, e.SelTotal = 0, 0, 0
	for i, s := range sel {
		if i == 0 {
			e.SelMin, e.SelMax = s, s
		}
		if s < e.SelMin {
			e.SelMin = s
		}
		if s > e.SelMax {
			e.SelMax = s
		}
		e.SelTotal += s
		if i < TraceSelCap {
			e.Sel[i] = s
			e.SelCount = i + 1
		}
	}
}

// DecisionTrace is a bounded ring buffer of TraceEntry. Appends are
// constant-time struct copies under a short mutex (allocation-free);
// when full, the oldest entry is overwritten.
type DecisionTrace struct {
	mu   sync.Mutex
	buf  []TraceEntry
	next int64 // total appends; buf slot is next % len(buf)
}

// DefaultTraceCap is the ring size NewDecisionTrace uses for cap <= 0:
// at ~200 bytes per entry the ring stays around 200 KiB.
const DefaultTraceCap = 1024

// NewDecisionTrace returns a ring keeping the last cap entries.
func NewDecisionTrace(cap int) *DecisionTrace {
	if cap <= 0 {
		cap = DefaultTraceCap
	}
	return &DecisionTrace{buf: make([]TraceEntry, cap)}
}

// Append records one batch. The entry's Seq is assigned here.
func (t *DecisionTrace) Append(e TraceEntry) {
	t.mu.Lock()
	e.Seq = t.next
	t.buf[t.next%int64(len(t.buf))] = e
	t.next++
	t.mu.Unlock()
}

// Len returns how many entries are currently retained.
func (t *DecisionTrace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next < int64(len(t.buf)) {
		return int(t.next)
	}
	return len(t.buf)
}

// Total returns how many entries were ever appended.
func (t *DecisionTrace) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Snapshot returns up to max retained entries, oldest first (max <= 0
// returns all retained entries).
func (t *DecisionTrace) Snapshot(max int) []TraceEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	retained := int64(len(t.buf))
	if n < retained {
		retained = n
	}
	if max > 0 && int64(max) < retained {
		retained = int64(max)
	}
	out := make([]TraceEntry, retained)
	for i := int64(0); i < retained; i++ {
		seq := n - retained + i
		out[i] = t.buf[seq%int64(len(t.buf))]
	}
	return out
}
