package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// worseBy is the share of base by which next is worse (negative: better).
func worseBy(base, next float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - next) / base
	}
	return (next - base) / base
}

// failedShareBound is how far failed/attempted may rise, as an absolute
// share: it is 0 on the seed, so it has no relative bound.
const failedShareBound = 0.002

// compareBounds are the bounds -compare applies besides BENCHMARK.json's,
// which has one bound per end-to-end metric for all workloads and none for
// a per-layer metric. Where both bound a row, the smaller counts. point_open
// keeps the bounds the benchmark's issue asked for; the writer of
// mixed_append_closed is bounded so that a read gain that starves it fails
// the comparison. Each is at least three times the widest spread of ten
// runs with ten seeds (README.md, Bounds).
var compareBounds = map[string]map[string]float64{
	"point_open": {
		"throughput_qps": 0.10,
		"latency_p50_ms": 0.10,
		"latency_p99_ms": 0.15,
	},
	"mixed_append_closed": {
		"writer.append_p50_ms": 0.25,
		"writer.append_p99_ms": 0.15,
	},
}

// boundOf is the bound -compare holds a (workload, metric) row to, or 0.
func boundOf(workload string, m metricSpec) float64 {
	bound := m.Bound
	if own := compareBounds[workload][m.Name]; own > 0 && (bound == 0 || own < bound) {
		bound = own
	}
	return bound
}

func (f resultFile) find(workload string, trace bool) *runResult {
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			return r
		}
	}
	return nil
}

// compareFiles prints, for every run of the base file and every metric
// BENCHMARK.json declares for its mode, the new value as a ratio of its
// base. It reports whether the new file passes: it has every run and every
// declared metric the base has, neither run is invalid, failed/attempted
// did not rise by more than failedShareBound, and no bounded metric got
// worse by more than its bound.
func compareFiles(w io.Writer, specPath, basePath, nextPath string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	next, err := readResults(nextPath)
	if err != nil {
		return false, err
	}
	if len(base.Runs) == 0 {
		return false, fmt.Errorf("%s holds no runs: nothing to compare", basePath)
	}
	ok := true
	flag := func(run *runResult, format string, args ...any) {
		ok = false
		fmt.Fprintf(w, "%-22s trace=%v: %s  REGRESSION\n", run.Workload, run.Trace, fmt.Sprintf(format, args...))
	}
	fmt.Fprintf(w, "%-22s %-34s %14s %14s %8s %9s %7s\n", "workload", "metric", "base", "new", "new/base", "worse by", "bound")
	for _, b := range base.Runs {
		n := next.find(b.Workload, b.Trace)
		if n == nil {
			flag(b, "no such run in %s", nextPath)
			continue
		}
		for _, r := range []*runResult{b, n} {
			if r.Invalid != "" {
				flag(r, "invalid run: %s", r.Invalid)
			}
		}
		bs, ns := ratio(float64(b.Failed), float64(b.Attempted)), ratio(float64(n.Failed), float64(n.Attempted))
		if ns-bs > failedShareBound {
			flag(n, "failed/attempted %d/%d -> %d/%d, a rise of more than %g", b.Failed, b.Attempted, n.Failed, n.Attempted, failedShareBound)
		}
		declared := spec.EndToEnd
		if b.Trace {
			declared = spec.PerLayer
		}
		for _, m := range declared {
			bv, inBase := b.get(m.Name)
			nv, inNext := n.get(m.Name)
			if !inBase || !inNext {
				flag(n, "%s reported by base: %v, by new: %v", m.Name, inBase, inNext)
				continue
			}
			worse := worseBy(bv, nv, m.Better)
			line := fmt.Sprintf("%-22s %-34s %14.6g %14.6g", b.Workload, m.Name, bv, nv)
			if bv > 0 {
				// A share of a base that is 0 or negative (a difference
				// of two medians can be) says nothing.
				line += fmt.Sprintf(" %8.3f %+8.1f%%", nv/bv, 100*worse)
			}
			if bound := boundOf(b.Workload, m); bound > 0 {
				line += fmt.Sprintf(" %6.0f%%", 100*bound)
				if worse > bound {
					line += "  REGRESSION"
					ok = false
				}
			}
			fmt.Fprintln(w, line)
		}
	}
	return ok, nil
}
