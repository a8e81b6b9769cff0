// Command benchmark is the repository's benchmark: four serve-path
// workloads driven through the engine exactly as shipped, end-to-end
// metrics with tracing off, and a traced run that splits latency by layer.
// README.md in this directory defines every workload and metric.
//
// One workload, as the driver runs it (from the repository root):
//
//	bash benchmark/run.sh --workload point_open --seed 1 --seconds 20 --trace 0
//
// Everything, into one result file, and two result files against the
// bounds in BENCHMARK.json:
//
//	bash benchmark/run.sh -seed 1 -out a.json
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"fastcolumns"
)

// conditions records what a run's numbers depend on besides the code.
type conditions struct {
	NumCPU       int                      `json:"nproc"`
	GOMAXPROCS   int                      `json:"gomaxprocs"`
	GoVersion    string                   `json:"go_version"`
	CPUModel     string                   `json:"cpu_model"`
	Commit       string                   `json:"commit"`
	Seed         int64                    `json:"seed"`
	DataSeed     int64                    `json:"data_seed"`
	Rows         int                      `json:"rows"`
	Seconds      float64                  `json:"seconds"`
	WarmSeconds  float64                  `json:"warm_seconds"`
	Hardware     fastcolumns.Hardware     `json:"engine_hardware"`
	ServeOptions fastcolumns.ServeOptions `json:"serve_options"`
	Process      string                   `json:"process"`
}

func conditionsOf(cfg runConfig, eng *fastcolumns.Engine) conditions {
	return conditions{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		Commit:       commit(),
		Seed:         cfg.seed,
		DataSeed:     dataSeed,
		Rows:         cfg.rows,
		Seconds:      cfg.seconds,
		WarmSeconds:  cfg.warm,
		Hardware:     eng.Hardware(),
		ServeOptions: serveOptions,
		Process:      "one workload per process; peak_rss_mb is that process's high-water mark",
	}
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "" when the file or the key is missing.
func procField(path, key string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, rest, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == key {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

func cpuModel() string {
	if model := procField("/proc/cpuinfo", "model name"); model != "" {
		return model
	}
	return "unknown"
}

// commit is the revision the go tool stamped into the binary, or
// "unknown" where it was built outside a git checkout.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	cfg := runConfig{rows: defaultRows, warm: warmSeconds}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four, each in its own process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for predicates and arrivals (the data has its own fixed seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the traced run's spans to this file (JSON)")
	trace := flag.String("trace", "", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run (default: both)")
	out := flag.String("out", "", "write the full result (metrics, sample counts, conditions) to this file")
	compare := flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(2, errors.New("usage: -compare base.json new.json"))
		}
		ok, err := compareFiles(os.Stdout, specFile, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(2, err)
		}
		if !ok {
			os.Exit(1)
		}
	case cfg.workload == "":
		if err := runAll(cfg, *trace, *out); err != nil {
			fail(1, err)
		}
	default:
		if *trace != "0" && *trace != "1" {
			fail(2, errors.New("one workload needs -trace 0 or -trace 1"))
		}
		cfg.trace = *trace == "1"
		os.Exit(runOne(cfg, *out))
	}
}

// specFile is the benchmark's definition, relative to the repository root,
// which is where the benchmark is run from.
const specFile = "BENCHMARK.json"

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(code)
}

// runOne runs one workload in this process, prints its metrics, and ends
// with the one-line JSON object the driver reads. It returns the exit code:
// 1 when a reply was wrong or the run was invalid.
func runOne(cfg runConfig, out string) int {
	res, err := run(cfg)
	if res == nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(res)
	if out != "" {
		if werr := writeJSON(out, resultFile{Runs: []*runResult{res}}); werr != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", werr)
			return 1
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: err == nil, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, m := range res.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, merr := json.Marshal(line)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", merr)
		return 1
	}
	fmt.Println(string(data))
	if err != nil || res.Invalid != "" {
		fmt.Fprintln(os.Stderr, "benchmark:", err, res.Invalid)
		return 1
	}
	return 0
}

func printResult(res *runResult) {
	mode := "end-to-end, tracing off"
	if res.Trace {
		mode = "per-layer, traced run"
	}
	fmt.Printf("# %s (%s): attempted %d, failed %d, wrong %d, failed_share %.6f; latency_p99_ms is p%g\n",
		res.Workload, mode, res.Attempted, res.Failed, res.Wrong,
		ratio(float64(res.Failed), float64(res.Attempted)), res.TailPercentile)
	for _, m := range res.Metrics {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Printf("%-22s %-34s %16.6g %-6s%s\n", res.Workload, m.Name, m.Value, m.Unit, n)
	}
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Runs []*runResult `json:"runs"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// runAll runs every workload, each run in a fresh process of this same
// binary so that peak_rss_mb and the GC counters start from nothing, and
// gathers their results. Each child writes its result beside the binary
// (.bench_build, when built by run.sh). It fails if any run failed; -compare
// then fails on the result file for the run it lacks.
func runAll(cfg runConfig, trace, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Dir(self), "parts-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	modes := []string{"0", "1"}
	if trace != "" {
		modes = []string{trace}
	}
	var all resultFile
	var failed []string
	for _, w := range workloads(cfg.rows) {
		for _, mode := range modes {
			part := filepath.Join(dir, w.name+"."+mode+".json")
			args := []string{
				"-workload", w.name, "-trace", mode, "-out", part,
				"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			}
			if cfg.traceOut != "" && mode == "1" {
				args = append(args, "-trace-out", cfg.traceOut+"."+w.name+".json")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, w.name+" -trace "+mode+": "+err.Error())
			}
			if f, err := readResults(part); err == nil {
				all.Runs = append(all.Runs, f.Runs...)
			}
		}
	}
	if out != "" {
		if err := writeJSON(out, all); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}
