package main

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"fastcolumns"
	rt "fastcolumns/internal/runtime"
)

const testRows = 20000

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {1, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileIsAnOrderStatistic(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(100 - i) // 100..1, so ascending has work to do
	}
	ascending(xs)
	for _, c := range []struct {
		pct  float64
		want int64
	}{{50, 50}, {99, 99}, {95, 95}, {100, 100}, {0, 1}} {
		if got := quantile(xs, c.pct); got != c.want {
			t.Errorf("quantile(1..100, %g) = %d, want %d", c.pct, got, c.want)
		}
	}
	if got := quantile([]int64{7}, 99); got != 7 {
		t.Errorf("quantile of one sample = %d, want 7", got)
	}
	if got := quantile([]float64(nil), 50); got != 0 {
		t.Errorf("quantile of nothing = %g, want 0", got)
	}
	// 1000 samples, ten of them slow: p99 is the last fast one, so the ten
	// beyond it are exactly the slow ones.
	ys := make([]int64, 1000)
	for i := range ys {
		ys[i] = 1
		if i >= 990 {
			ys[i] = 1000
		}
	}
	if got := quantile(ys, tailPercentile(len(ys))); got != 1 {
		t.Errorf("p99 of 990 fast + 10 slow = %d, want 1", got)
	}
}

// An open loop must charge a stalled dispatcher's lateness to the queries
// it delayed: the server below answers at once, but its first Submit
// blocks for 20 ms, so queries due meanwhile are sent late and their
// latency, counted from the intended time, shows the stall.
func TestOpenLoopStampsIntendedTime(t *testing.T) {
	w := &workload{name: "open", table: "t", attr: "a", domain: testRows, mix: []queryKind{{1, 0}}, rate: 2000, deadline: time.Second}
	fx := newFixture(w, testRows)
	const stall = 20 * time.Millisecond
	first := true
	door := func(_ context.Context, _ fastcolumns.Predicate) (<-chan fastcolumns.Reply, error) {
		if first {
			first = false
			time.Sleep(stall)
		}
		ch := make(chan fastcolumns.Reply, 1)
		ch <- fastcolumns.Reply{}
		return ch, nil
	}
	log := fx.drive(door, nil, 1, 60*time.Millisecond, false)
	if len(log.samples) < 20 {
		t.Fatalf("only %d arrivals in 60 ms at 2000/s", len(log.samples))
	}
	for i, s := range log.samples {
		if i > 0 && s.due <= log.samples[i-1].due {
			t.Fatalf("arrival %d due at %d, not after %d", i, s.due, log.samples[i-1].due)
		}
		if s.sent < s.due {
			t.Errorf("arrival %d sent %d ns before it was due", i, s.due-s.sent)
		}
	}
	// The second arrival was due within the stall and could not be sent
	// before it ended.
	second := log.samples[1]
	if second.due >= int64(stall) {
		t.Skipf("second arrival due at %v, after the stall", time.Duration(second.due))
	}
	if late := second.sent - second.due; late < int64(stall)-second.due-int64(time.Millisecond) {
		t.Errorf("second arrival sent %v late, want about %v", time.Duration(late), stall-time.Duration(second.due))
	}
	if lat := second.recv - second.due; lat < second.sent-second.due {
		t.Errorf("latency %v does not include the lateness %v", time.Duration(lat), time.Duration(second.sent-second.due))
	}
	if max := latencies(log.samples); ms(max[len(max)-1]) < 10 {
		t.Errorf("worst latency %.3f ms: the 20 ms stall is not in the numbers", ms(max[len(max)-1]))
	}
}

// dropLastRow corrupts every fifth non-empty reply.
func dropLastRow(door submitFn) submitFn {
	n := 0
	return func(ctx context.Context, p fastcolumns.Predicate) (<-chan fastcolumns.Reply, error) {
		ch, err := door(ctx, p)
		if err != nil {
			return ch, err
		}
		n++
		if n%5 != 0 {
			return ch, nil
		}
		out := make(chan fastcolumns.Reply, 1)
		rt.Go(func() {
			rep := <-ch
			if len(rep.RowIDs) > 0 {
				rep.RowIDs = rep.RowIDs[:len(rep.RowIDs)-1]
			}
			out <- rep
		})
		return out, nil
	}
}

func TestOracleFailsTheRunOnAWrongReply(t *testing.T) {
	cfg := runConfig{workload: "range05_burst64", seed: 1, seconds: 0.2, warm: 0.05, rows: testRows, tamper: dropLastRow}
	res, err := run(cfg)
	if !errors.Is(err, errWrongResult) {
		t.Fatalf("run with corrupted replies returned %v, want errWrongResult", err)
	}
	if res.Wrong == 0 || res.Failed == 0 || res.Failed >= res.Attempted {
		t.Errorf("wrong %d, failed %d of %d: want some but not all", res.Wrong, res.Failed, res.Attempted)
	}
	if share := ratio(float64(res.Failed), float64(res.Attempted)); share <= 0 {
		t.Errorf("failed_share %g, want > 0", share)
	}
	if code := runOne(cfg, ""); code == 0 {
		t.Errorf("runOne exit code 0 on a run with wrong replies")
	}
}

// A reply on the mixed workload may reflect any table version between its
// submit and its reply, and no other.
func TestOracleAcceptsAnyVersionInFlight(t *testing.T) {
	w := findWorkload("mixed_append_closed", testRows)
	fx := newFixture(w, testRows)
	v := fx.appended[0]
	p := fastcolumns.Predicate{Lo: v, Hi: v}
	fx.mergeAt = []int{1} // version 1 holds appended[:1]
	v0, v1 := fx.expected(p, 0), fx.expected(p, 1)
	if v1 != v0+1 {
		t.Fatalf("expected counts %d then %d, want the merge to add one row", v0, v1)
	}
	samples := []sample{
		{pred: p, rows: v1, verLo: 0, verHi: 1}, // merge in flight: new count is fine
		{pred: p, rows: v0, verLo: 0, verHi: 1}, // so is the old one
		{pred: p, rows: v0, verLo: 1, verHi: 1}, // submitted after the merge: stale
		{pred: p, rows: v1, verLo: 0, verHi: 0}, // replied before the merge: impossible
	}
	fx.verify(samples)
	for i, want := range []uint8{statusOK, statusOK, statusWrong, statusWrong} {
		if samples[i].status != want {
			t.Errorf("sample %d: status %d, want %d", i, samples[i].status, want)
		}
	}
	ids := []fastcolumns.RowID{fastcolumns.RowID(testRows)}
	fx.appendCount.Store(1)
	if !fx.rowsMatch(p, ids) {
		t.Errorf("rowsMatch rejects the appended row")
	}
	if fx.rowsMatch(fastcolumns.Predicate{Lo: v + 1, Hi: v + 1}, ids) {
		t.Errorf("rowsMatch accepts a row outside the predicate")
	}
	if fx.rowsMatch(p, []fastcolumns.RowID{ids[0], ids[0]}) {
		t.Errorf("rowsMatch accepts a repeated rowID")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every name in BENCHMARK.json is emitted, and nothing else is: a tiny
// run of each workload in both modes, checked against the file.
func TestSmokeEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || strings.Trim(spec.Paths[0], "/") != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
	}
	var have []string
	for _, w := range workloads(testRows) {
		have = append(have, w.name)
	}
	if strings.Join(declared, " ") != strings.Join(have, " ") {
		t.Errorf("BENCHMARK.json workloads %v, harness has %v", declared, have)
	}
	for _, mode := range []struct {
		trace bool
		specs []metricSpec
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		want := map[string]string{}
		for _, m := range mode.specs {
			want[m.Name] = m.Unit
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q", m.Name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
		for _, w := range have {
			secs := 0.2
			if mode.trace {
				secs = 0.6 // three segments
			}
			res, err := run(runConfig{workload: w, seed: 7, seconds: secs, warm: 0.05, rows: testRows, trace: mode.trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, mode.trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: failed %d of %d", w, mode.trace, res.Failed, res.Attempted)
			}
			got := map[string]bool{}
			for _, m := range res.Metrics {
				got[m.Name] = true
				if unit, ok := want[m.Name]; !ok {
					t.Errorf("%s trace=%v emits %q, which BENCHMARK.json does not declare", w, mode.trace, m.Name)
				} else if unit != m.Unit {
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, m.Unit, unit)
				}
			}
			for name := range want {
				if !got[name] {
					t.Errorf("%s trace=%v does not emit %q", w, mode.trace, name)
				}
			}
		}
	}
}

func TestCompareFlagsOnlyWhatExceedsItsBound(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[
		{"name":"throughput_qps","unit":"1/s","better":"higher","bound":0.15},
		{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.15}],
		"per_layer":[
		{"name":"scheduler.shed","unit":"count","better":"lower"},
		{"name":"writer.append_p50_ms","unit":"ms","better":"lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// runs builds the two runs of one workload; edit changes them.
	runs := func(workload string, qps, p50, appendP50 float64) []*runResult {
		return []*runResult{
			{Workload: workload, Attempted: 1000, Metrics: []metric{{Name: "throughput_qps", Value: qps}, {Name: "latency_p50_ms", Value: p50}}},
			{Workload: workload, Trace: true, Attempted: 1000, Metrics: []metric{{Name: "scheduler.shed", Value: 0}, {Name: "writer.append_p50_ms", Value: appendP50}}},
		}
	}
	files := 0
	file := func(rs []*runResult) string {
		files++
		path := filepath.Join(dir, "result"+string(rune('a'+files))+".json")
		if err := writeJSON(path, resultFile{Runs: rs}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	edit := func(rs []*runResult, f func(rs []*runResult)) []*runResult {
		f(rs)
		return rs
	}
	for _, c := range []struct {
		name       string
		base, next []*runResult
		flagged    int // rows marked REGRESSION; 0 means the comparison passes
	}{
		{"14% and 13% worse, bounds 15%", runs("w", 100, 10, 0), runs("w", 86, 11.3, 0), 0},
		{"p50 20% worse, throughput better", runs("w", 100, 10, 0), runs("w", 120, 12, 0), 1},
		{"unbounded per-layer metric moves", runs("w", 100, 10, 5), runs("w", 100, 10, 50), 0},
		{"point_open has its own 10% bounds", runs("point_open", 100, 10, 0), runs("point_open", 88, 11.2, 0), 2},
		{"the writer is bounded on mixed_append_closed", runs("mixed_append_closed", 100, 10, 5), runs("mixed_append_closed", 110, 9, 6.5), 1},
		{"a run is missing from the new file", runs("w", 100, 10, 0), runs("w", 100, 10, 0)[:1], 1},
		{"a declared metric is missing from the new file", runs("w", 100, 10, 0),
			edit(runs("w", 100, 10, 0), func(rs []*runResult) { rs[0].Metrics = rs[0].Metrics[:1] }), 1},
		{"the new run is invalid", runs("w", 100, 10, 0),
			edit(runs("w", 100, 10, 0), func(rs []*runResult) { rs[0].Invalid = "generator late" }), 1},
		{"the base run is invalid", edit(runs("w", 100, 10, 0), func(rs []*runResult) { rs[1].Invalid = "generator late" }),
			runs("w", 100, 10, 0), 1},
		{"failed share rises by 0.003", runs("w", 100, 10, 0),
			edit(runs("w", 100, 10, 0), func(rs []*runResult) { rs[0].Failed = 3 }), 1},
		{"failed share rises by 0.002", runs("w", 100, 10, 0),
			edit(runs("w", 100, 10, 0), func(rs []*runResult) { rs[0].Failed = 2 }), 0},
	} {
		var out strings.Builder
		ok, err := compareFiles(&out, spec, file(c.base), file(c.next))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := strings.Count(out.String(), "REGRESSION"); n != c.flagged || ok != (c.flagged == 0) {
			t.Errorf("%s: ok=%v with %d rows flagged, want %d:\n%s", c.name, ok, n, c.flagged, out.String())
		}
	}
	if ok, err := compareFiles(io.Discard, spec, file(nil), file(runs("w", 100, 10, 0))); ok || err == nil {
		t.Errorf("a base file without runs: ok=%v err=%v, want an error", ok, err)
	}
}
