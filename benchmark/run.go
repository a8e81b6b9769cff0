package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"fastcolumns"
)

// metricDef names a metric and its unit. The two tables below are the
// harness's side of BENCHMARK.json; a test holds them equal to the file.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayerDefs = []metricDef{
	{"scheduler.queue_wait_p50_us", "us"},
	{"scheduler.queue_wait_p99_us", "us"},
	{"scheduler.admit_p50_us", "us"},
	{"scheduler.reply_p50_us", "us"},
	{"scheduler.noop_roundtrip_p50_us", "us"},
	{"scheduler.batch_width_mean", "count"},
	{"scheduler.shed", "count"},
	{"scheduler.cancelled", "count"},
	{"server.overhead_p50_us", "us"},
	{"optimizer.decide_p50_ns", "ns"},
	{"optimizer.decide_ns_per_query", "ns"},
	{"optimizer.index_share", "share"},
	{"optimizer.regret_p50", "x"},
	{"optimizer.regret_max", "x"},
	{"optimizer.model_scale", "x"},
	{"exec.batch_p50_ms", "ms"},
	{"exec.rows_per_s", "rows/s"},
	{"exec.materialise_share", "share"},
	{"scan.batch_p50_ms", "ms"},
	{"scan.ns_per_tuple_query", "ns"},
	{"scan.bytes_per_s", "B/s"},
	{"scan.roofline_share", "share"},
	{"index.batch_p50_ms", "ms"},
	{"index.ns_per_result_row", "ns"},
	{"runtime.arena_hit_share", "share"},
	{"runtime.steals_per_batch", "count"},
	{"runtime.morsels_per_batch", "count"},
	{"runtime.alloc_bytes_per_query", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"storage.merge_p50_ms", "ms"},
	{"storage.append_idle_p50_us", "us"},
	{"writer.append_p50_ms", "ms"},
	{"writer.append_p99_ms", "ms"},
	{"table.read_stall_max_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"gen.spin_share", "share"},
	{"trace.overhead_share", "share"},
	{"trace.unattributed_share", "share"},
	{"failed_share", "share"},
}

// metric is one measured value. N is the number of samples behind a
// timing (0 for a count or a ratio of sums).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	warm     float64
	trace    bool
	rows     int
	traceOut string
	// tamper, set only by tests, wraps the front door to corrupt replies.
	tamper func(submitFn) submitFn
}

// runResult is what one run reports.
type runResult struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Wrong     int      `json:"wrong"`
	Metrics   []metric `json:"metrics"`
	// TailPercentile is the percentile latency_p99_ms (and, in a traced
	// run, scheduler.queue_wait_p99_us) actually is; AppendTailPercentile
	// the same for writer.append_p99_ms.
	TailPercentile       float64 `json:"tail_percentile"`
	AppendTailPercentile float64 `json:"append_tail_percentile,omitempty"`
	// Invalid is set when the generator, not the program, shaped the
	// numbers: the open loop's p99 lateness exceeded the median latency.
	Invalid    string     `json:"invalid,omitempty"`
	Conditions conditions `json:"conditions"`
}

// newMetric looks the unit up in defs. A name outside the table is a bug
// in this file, made loud by a name no BENCHMARK.json can declare.
func newMetric(defs []metricDef, name string, value float64, n int) metric {
	for _, d := range defs {
		if d.name == name {
			return metric{Name: name, Value: value, Unit: d.unit, N: n}
		}
	}
	return metric{Name: name + "?undeclared", Value: value}
}

func (r *runResult) add(defs []metricDef, name string, value float64, n int) {
	r.Metrics = append(r.Metrics, newMetric(defs, name, value, n))
}

// get returns the named metric and whether the run reported it.
func (r *runResult) get(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// latencies returns the ascending latencies (reply received minus due) of
// the answered queries.
func latencies(samples []sample) []int64 {
	out := make([]int64, 0, len(samples))
	for i := range samples {
		if samples[i].status == statusOK {
			out = append(out, samples[i].recv-samples[i].due)
		}
	}
	return ascending(out)
}

func countFailed(samples []sample) (failed, wrong int) {
	for i := range samples {
		switch samples[i].status {
		case statusOK:
		case statusWrong:
			wrong++
			failed++
		default:
			failed++
		}
	}
	return failed, wrong
}

// Seeds of the phases of one run, all derived from -seed.
func warmSeed(seed int64) int64     { return seed + 1<<40 }
func composedSeed(seed int64) int64 { return seed + 2<<40 }
func tracedSeed(seed int64) int64   { return seed + 3<<40 }
func noopSeed(seed int64) int64     { return seed + 4<<40 }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// serverDoor is the shipped front door of a system.
func (fx *fixture) serverDoor(sys *system, cfg runConfig) submitFn {
	door := func(ctx context.Context, p fastcolumns.Predicate) (<-chan fastcolumns.Reply, error) {
		return sys.srv.SubmitContext(ctx, fx.w.table, fx.w.attr, p)
	}
	if cfg.tamper != nil {
		return cfg.tamper(door)
	}
	return door
}

// setupCount is how many times an untraced run builds the system: setup_s
// is the median, which one slow page-fault storm does not move.
const setupCount = 3

// A traced run ends with an idle write probe (see writeProbe): probeGroups
// groups of probePerGroup appends, and a merge every probeMergeEvery.
const (
	probeGroups     = 10
	probePerGroup   = 50
	probeMergeEvery = 250
)

var errWrongResult = errors.New("benchmark: a reply did not match the oracle")

// run executes one workload once and returns its metrics: the end-to-end
// ones with tracing off, or the per-layer ones from a traced run.
func run(cfg runConfig) (*runResult, error) {
	w := findWorkload(cfg.workload, cfg.rows)
	if w == nil {
		return nil, fmt.Errorf("benchmark: no workload %q", cfg.workload)
	}
	fx := newFixture(w, cfg.rows)
	res := &runResult{Workload: w.name, Trace: cfg.trace}
	var err error
	if cfg.trace {
		err = fx.runTraced(cfg, res)
	} else {
		err = fx.runUntraced(cfg, res)
	}
	if err != nil {
		return nil, err
	}
	if res.Wrong > 0 {
		return res, errWrongResult
	}
	return res, nil
}

func (fx *fixture) runUntraced(cfg runConfig, res *runResult) error {
	// The run is spread over setupCount freshly built systems, each warmed
	// and measured for its share of the time, and the samples are pooled:
	// where the allocator happened to put a column or an index moves a
	// scan's speed by a few percent for the life of that system, and a
	// single system would carry that into every number of the run.
	var pooled runLog
	setups := make([]float64, 0, setupCount)
	for i := 0; i < setupCount; i++ {
		sys, took, err := fx.setup()
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		res.Conditions = conditionsOf(cfg, sys.eng)
		door := fx.serverDoor(sys, cfg)
		fx.drive(door, sys.tbl, warmSeed(cfg.seed)+int64(i), seconds(cfg.warm/setupCount), true)
		log := fx.drive(door, sys.tbl, cfg.seed+int64(i)<<32, seconds(cfg.seconds/setupCount), true)
		sys.close()
		// Hand the system's memory back before the next one is built, so
		// that peak_rss_mb is one system's and not three; and forget its
		// table's versions.
		debug.FreeOSMemory()
		fx.resetLedger()
		if log.writeErr != nil {
			return log.writeErr
		}
		lat := latencies(log.samples)
		fmt.Printf("# %s system %d: setup %.3f s, %d replies in %.3f s, p50 %.4f ms\n",
			fx.w.name, i+1, took.Seconds(), len(lat), log.wall.Seconds(), ms(quantile(lat, 50)))
		pooled.samples = append(pooled.samples, log.samples...)
		pooled.units += log.units
		pooled.wall += log.wall
	}
	lat := latencies(pooled.samples)
	res.Attempted = len(pooled.samples)
	res.Failed, res.Wrong = countFailed(pooled.samples)
	res.TailPercentile = tailPercentile(pooled.units)
	res.add(endToEndDefs, "setup_s", medianFloat(setups), len(setups))
	res.add(endToEndDefs, "throughput_qps", float64(len(lat))/pooled.wall.Seconds(), len(lat))
	res.add(endToEndDefs, "latency_p50_ms", ms(quantile(lat, 50)), len(lat))
	res.add(endToEndDefs, "latency_p99_ms", ms(quantile(lat, res.TailPercentile)), len(lat))
	res.add(endToEndDefs, "peak_rss_mb", peakRSSMB(), 0)
	res.Invalid = lateness(fx.w, &pooled, lat)
	return nil
}

// lateness says why an open-loop run is invalid, or "" when it is not:
// when the dispatcher's own p99 lateness exceeds the median latency, the
// numbers describe the generator.
func lateness(w *workload, log *runLog, lat []int64) string {
	if !w.open() {
		return ""
	}
	late, p50 := lateP99(log.samples), quantile(lat, 50)
	if late > p50 {
		return fmt.Sprintf("generator p99 lateness %.3f ms exceeds latency p50 %.3f ms", ms(late), ms(p50))
	}
	return ""
}

func lateP99(samples []sample) int64 {
	late := make([]int64, len(samples))
	for i := range samples {
		late[i] = samples[i].sent - samples[i].due
	}
	return quantile(ascending(late), 99)
}

// peakRSSMB is the process's resident-set high-water mark. A run is one
// workload in a fresh process, so the mark is that workload's.
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// counterDelta reads the engine's own counters around a measured segment.
type counterDelta struct {
	counters map[string]int64
	stats    fastcolumns.ServerStats
	paths    map[string]int64
	mem      runtime.MemStats
}

func snapshotCounters(sys *system, w *workload) counterDelta {
	var d counterDelta
	d.counters = sys.eng.Observe().Metrics.Counters
	d.stats = sys.srv.ServerStats()
	d.paths = sys.srv.Stats(w.table, w.attr).PathCounts
	runtime.ReadMemStats(&d.mem)
	return d
}

func (fx *fixture) runTraced(cfg runConfig, res *runResult) error {
	w := fx.w
	sys, _, err := fx.setup()
	if err != nil {
		return err
	}
	defer sys.close()
	res.Conditions = conditionsOf(cfg, sys.eng)
	door := fx.serverDoor(sys, cfg)
	segment := seconds(cfg.seconds / 3)

	fx.drive(door, sys.tbl, warmSeed(cfg.seed), seconds(cfg.warm), true)

	// Segment 1: the shipped server, tracing off, with the engine's own
	// counters read before and after.
	before := snapshotCounters(sys, w)
	served := fx.drive(door, sys.tbl, cfg.seed, segment, true)
	after := snapshotCounters(sys, w)

	// Segments 2 and 3: the recomposed serve path, untraced then traced.
	plain := newComposed(sys.tbl, w.attr, false)
	composedLog := fx.drive(plain.submit, sys.tbl, composedSeed(cfg.seed), segment, true)
	plain.sched.Close()
	tr := newComposed(sys.tbl, w.attr, true)
	tracedLog := fx.drive(tr.submit, sys.tbl, tracedSeed(cfg.seed), segment, true)
	tr.sched.Close()
	for _, l := range []*runLog{served, composedLog, tracedLog} {
		if l.writeErr != nil {
			return l.writeErr
		}
	}
	layers := splitLayers(tracedLog, tr.batches, cfg.traceOut != "")
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, layers.spans); err != nil {
			return err
		}
	}

	// Probes, off the clock.
	rep, err := replay(sys.tbl, w.attr, tr.batches)
	if err != nil {
		return err
	}
	noop := fx.noopRoundtrip(noopSeed(cfg.seed), seconds(math.Min(1, cfg.seconds/3)))
	colBytes := len(fx.base) * 4
	if w.compress {
		colBytes = len(fx.base) * 2
	}
	ceiling := streamBandwidth(colBytes)
	idleAppendNs, idleMergeNs, err := fx.writeProbe(sys.tbl, probeGroups, probePerGroup, probeMergeEvery)
	if err != nil {
		return err
	}

	all := append(append(append([]sample(nil), served.samples...), composedLog.samples...), tracedLog.samples...)
	res.Attempted = len(all)
	res.Failed, res.Wrong = countFailed(all)
	res.TailPercentile = tailPercentile(tracedLog.units)

	servedLat, composedLat, tracedLat := latencies(served.samples), latencies(composedLog.samples), latencies(tracedLog.samples)
	servedP50, composedP50, tracedP50 := quantile(servedLat, 50), quantile(composedLat, 50), quantile(tracedLat, 50)
	queries := float64(len(servedLat))
	batches := float64(after.stats.Batches - before.stats.Batches)

	add := func(name string, v float64, n int) { res.add(perLayerDefs, name, v, n) }
	ascending(layers.queue)
	add("scheduler.queue_wait_p50_us", us(quantile(layers.queue, 50)), len(layers.queue))
	add("scheduler.queue_wait_p99_us", us(quantile(layers.queue, res.TailPercentile)), len(layers.queue))
	add("scheduler.admit_p50_us", us(quantile(ascending(layers.admit), 50)), len(layers.admit))
	add("scheduler.reply_p50_us", us(quantile(ascending(layers.reply), 50)), len(layers.reply))
	add("scheduler.noop_roundtrip_p50_us", noop, 0)
	add("scheduler.batch_width_mean", ratio(float64(after.stats.Submitted-before.stats.Submitted), batches), int(batches))
	add("scheduler.shed", float64(after.stats.Rejected-before.stats.Rejected), 0)
	add("scheduler.cancelled", float64(after.stats.Cancelled-before.stats.Cancelled), 0)
	add("server.overhead_p50_us", us(servedP50-composedP50), len(servedLat))

	var decideSum, qSum, scanSum, indexSum, rowSum, selSum, cntSum float64
	var regrets []float64
	for i := range rep.q {
		decideSum += rep.decideNs[i]
		qSum += float64(rep.q[i])
		scanSum += rep.scanNs[i]
		indexSum += rep.indexNs[i]
		rowSum += float64(rep.rows[i])
		selSum += rep.selectWall[i]
		cntSum += rep.countWall[i]
		chosen := rep.scanNs[i]
		if rep.indexPath[i] {
			chosen = rep.indexNs[i]
		}
		regrets = append(regrets, ratio(chosen, math.Min(rep.scanNs[i], rep.indexNs[i])))
	}
	// The loop above was the last to read rep's slices by batch: the
	// medians below reorder them.
	add("optimizer.decide_p50_ns", medianFloat(rep.decideNs), len(rep.q))
	add("optimizer.decide_ns_per_query", ratio(decideSum, qSum), len(rep.q))
	var pathBatches int64
	for p, n := range after.paths {
		pathBatches += n - before.paths[p]
	}
	index := fastcolumns.PathIndex.String()
	add("optimizer.index_share", ratio(float64(after.paths[index]-before.paths[index]), float64(pathBatches)), int(pathBatches))
	add("optimizer.regret_p50", medianFloat(regrets), len(regrets))
	add("optimizer.regret_max", maxFloat(regrets), len(regrets))

	var logScale, execSum, execRows float64
	var scaled int
	execNs := make([]int64, 0, len(tr.batches))
	for _, b := range tr.batches {
		execNs = append(execNs, int64(b.exec))
		execSum += b.exec.Seconds()
		execRows += float64(b.rows)
		if b.cost > 0 && b.exec > 0 {
			logScale += math.Log(b.exec.Seconds() / b.cost)
			scaled++
		}
	}
	scale := 0.0
	if scaled > 0 {
		scale = math.Exp(logScale / float64(scaled))
	}
	add("optimizer.model_scale", scale, scaled)
	add("exec.batch_p50_ms", ms(quantile(ascending(execNs), 50)), len(execNs))
	add("exec.rows_per_s", ratio(execRows, execSum), len(execNs))
	add("exec.materialise_share", 1-ratio(cntSum, selSum), len(rep.q))

	tuples := float64(len(fx.base)) * qSum
	scanBW := ratio(float64(colBytes)*float64(len(rep.q)), scanSum/1e9)
	add("scan.batch_p50_ms", medianFloat(rep.scanNs)/1e6, len(rep.q))
	add("scan.ns_per_tuple_query", ratio(scanSum, tuples), len(rep.q))
	add("scan.bytes_per_s", scanBW, len(rep.q))
	add("scan.roofline_share", ratio(scanBW, ceiling), len(rep.q))
	add("index.batch_p50_ms", medianFloat(rep.indexNs)/1e6, len(rep.q))
	add("index.ns_per_result_row", ratio(indexSum, rowSum), len(rep.q))

	cnt := func(name string) float64 { return float64(after.counters[name] - before.counters[name]) }
	hits, misses := cnt("runtime.arena.hits"), cnt("runtime.arena.misses")
	add("runtime.arena_hit_share", ratio(hits, hits+misses), int(hits+misses))
	add("runtime.steals_per_batch", ratio(cnt("runtime.pool.steals"), batches), int(batches))
	add("runtime.morsels_per_batch", ratio(cnt("runtime.pool.morsels"), batches), int(batches))
	add("runtime.alloc_bytes_per_query", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), queries), len(servedLat))
	add("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC), 0)
	add("runtime.gc_pause_total_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, 0)

	// Merges beside readers where the workload has a writer; the idle
	// probe's otherwise.
	var mergeNs []int64
	for _, l := range []*runLog{served, composedLog, tracedLog} {
		for _, m := range l.merges {
			mergeNs = append(mergeNs, m.end-m.start)
		}
	}
	if len(mergeNs) == 0 {
		mergeNs = idleMergeNs
	}
	add("storage.merge_p50_ms", ms(quantile(ascending(mergeNs), 50)), len(mergeNs))
	add("storage.append_idle_p50_us", us(quantile(ascending(idleAppendNs), 50)), len(idleAppendNs))
	// The writer's append latencies (from scheduled time to return) over
	// all three segments; zeros when the workload has no writer.
	appends := ascending(append(append(served.appends, composedLog.appends...), tracedLog.appends...))
	if len(appends) > 0 {
		res.AppendTailPercentile = tailPercentile(len(appends))
	}
	add("writer.append_p50_ms", ms(quantile(appends, 50)), len(appends))
	add("writer.append_p99_ms", ms(quantile(appends, res.AppendTailPercentile)), len(appends))
	add("table.read_stall_max_ms", ms(readStallMax(served)), len(served.merges))

	late := int64(0)
	if w.open() {
		late = lateP99(served.samples)
	}
	add("gen.late_p99_ms", ms(late), len(served.samples))
	add("gen.spin_share", ratio(served.spun.Seconds(), served.wall.Seconds()), 0)
	add("trace.overhead_share", ratio(float64(tracedP50-composedP50), float64(composedP50)), len(tracedLat))
	add("trace.unattributed_share", ratio(float64(layers.unattributed), float64(layers.root)), len(tracedLat))
	add("failed_share", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
	res.Invalid = lateness(w, served, servedLat)
	return nil
}

// readStallMax is the longest read whose flight overlapped a merge.
func readStallMax(log *runLog) int64 {
	var worst int64
	for i := range log.samples {
		s := &log.samples[i]
		if s.status != statusOK {
			continue
		}
		for _, m := range log.merges {
			if s.sent < m.end && s.recv > m.start && s.recv-s.due > worst {
				worst = s.recv - s.due
			}
		}
	}
	return worst
}
