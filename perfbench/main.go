// Command perfbench is the repository benchmark: it runs one workload of
// the ColumnSGD system end to end in this process and prints its metrics.
//
//	bash perfbench/run.sh --workload tcp-narrow --seed 1 --seconds 25 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	tcp-narrow    ColumnSGD LR, 4K features, 2 workers over TCP loopback
//	lr-wide       ColumnSGD LR, 1M features, 2 in-process workers
//	ps-wide       the same job on the rowsgd MXNet sparse-pull parameter server
//	serve-reload  open-loop POST /predict on a 1M-feature model, hot reload every 250 ms
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 the program is additionally wrapped at its layer
// boundaries (cluster clients, worker services, serving calls) and the
// last line carries the per-layer metrics instead. Every metric listed in
// BENCHMARK.json is present on every workload; per-layer metrics of a
// layer a workload does not exercise read 0 and are marked n/a in the
// human-readable table printed above the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// row is one line of the human-readable table: the metric names the
// design document uses, with "n/a" where a metric does not apply.
type row struct {
	name, unit string
	value      float64
	applies    bool
	note       string
}

// report collects one run's output.
type report struct {
	result
	table  []row
	checks []string // failed output checks, one line each
}

func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) show(name, unit string, v float64, note string) {
	r.table = append(r.table, row{name: name, unit: unit, value: v, applies: true, note: note})
}

func (r *report) na(names ...string) {
	for _, n := range names {
		r.table = append(r.table, row{name: n})
	}
}

// fail records a failed output check; it also counts as a failed operation.
func (r *report) fail(format string, args ...interface{}) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
	r.Failed++
}

// options are the command-line arguments every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scratch  string // per-run scratch directory under the build directory
}

var workloads = map[string]func(options, *report) error{
	"tcp-narrow":   runTCPNarrow,
	"lr-wide":      runLRWide,
	"ps-wide":      runPSWide,
	"serve-reload": runServeReload,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the inputs are generated from it")
	flag.IntVar(&o.seconds, "seconds", 25, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()
	fn, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown --workload %q (want one of %v)", o.workload, names)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	root, err := checkoutRoot()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	o.scratch, err = os.MkdirTemp(build, "run-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(o.scratch)

	env := map[string]interface{}{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      trace,
		"revision":   revision(root),
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
	envLine, _ := json.Marshal(env) // plain map of strings and numbers
	fmt.Printf("perfbench env %s\n", envLine)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	rep := &report{result: result{Correct: true, Metrics: map[string]metric{}}}
	if err := fn(o, rep); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if len(rep.checks) > 0 {
		rep.Correct = false
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	if len(rep.Metrics) != len(want) {
		return fmt.Errorf("%s: reported %d metrics, BENCHMARK.json lists %d", o.workload, len(rep.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := rep.Metrics[w.name]
		if !ok || m.Unit != w.unit {
			return fmt.Errorf("%s: metric %s [%s] missing or in another unit", o.workload, w.name, w.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", o.workload, w.name, m.Value)
		}
	}
	printTable(o, rep)
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printTable(o options, rep *report) {
	kind := "end-to-end"
	if o.trace {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("perfbench %s %s metrics, seed %d:\n", o.workload, kind, o.seed)
	for _, r := range rep.table {
		if !r.applies {
			fmt.Printf("  %-40s n/a\n", r.name)
			continue
		}
		note := ""
		if r.note != "" {
			note = "  (" + r.note + ")"
		}
		fmt.Printf("  %-40s %14.6g %s%s\n", r.name, r.value, r.unit, note)
	}
	fmt.Printf("  %-40s %14.6g %s  (%d of %d operations)\n", "fail_frac",
		float64(rep.Failed)/float64(max(rep.Attempted, 1)), "ratio", rep.Failed, rep.Attempted)
	for _, c := range rep.checks {
		fmt.Printf("  CHECK FAILED: %s\n", c)
	}
}

// checkoutRoot finds the repository root: the directory holding go.mod
// of module columnsgd, searched upward from the working directory.
func checkoutRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && modulePath(b) == "columnsgd" {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no columnsgd checkout above the working directory")
		}
		dir = parent
	}
}
