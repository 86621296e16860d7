package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"columnsgd"
)

// smallNarrow is tcp-narrow shrunk to test size: same engine settings
// (TCP loopback, pipelined, two inline workers), fewer rows and rounds.
var smallNarrow = trainSpec{rows: 4000, features: 512, nnz: 16, batch: 128, lr: 0.5,
	tcp: true, pipeline: true, rounds: 60, evalEvery: 20}

// trainAndExport runs the benchmark's round loop, with its periodic
// full-loss evaluations, and exports the model.
func trainAndExport(t *testing.T, s trainSpec, path string, seed int64, rec *recorder) [][]float64 {
	t.Helper()
	sess, err := startSession(s, path, seed, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.close()
	if rec != nil {
		rec.on.Store(true)
	}
	for r := 1; r <= s.rounds; r++ {
		if err := sess.step(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if r%s.evalEvery == 0 {
			if _, err := sess.fullLoss(); err != nil {
				t.Fatal(err)
			}
		}
	}
	w, err := sess.export()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTCPNarrowMatchesInProcess holds the benchmark to the program it
// measures: tcp-narrow's engine, built from internal constructors over
// TCP, with and without the tracing wrappers, exports the same model bit
// for bit as columnsgd.Train in-process with the same seed.
func TestTCPNarrowMatchesInProcess(t *testing.T) {
	const seed = 7
	path, err := writeTrainingData(smallNarrow, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := columnsgd.LoadLibSVMFile(path, smallNarrow.features)
	if err != nil {
		t.Fatal(err)
	}
	res, err := columnsgd.Train(ds, columnsgd.Config{Model: columnsgd.LogisticRegression, Workers: trainWorkers,
		BatchSize: smallNarrow.batch, LearningRate: smallNarrow.lr, Iterations: smallNarrow.rounds,
		Seed: seed, Parallelism: 1, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Weights()
	rec := newRecorder()
	for name, r := range map[string]*recorder{"untraced": nil, "traced": rec} {
		got := trainAndExport(t, smallNarrow, path, seed, r)
		if len(got) != len(want) {
			t.Fatalf("%s: %d parameter rows, want %d", name, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s: row %d has %d weights, want %d", name, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("%s: weight [%d][%d] = %v, in-process run has %v", name, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	if len(transportTimes(rec.take())) == 0 {
		t.Fatal("traced run paired no client call with its worker handler")
	}
}

func TestCoverage(t *testing.T) {
	ivs := []interval{{10, 20}, {15, 30}, {40, 50}, {0, 5}, {45, 70}}
	covered, gaps := coverage(ivs, 2, 60)
	// covered: [2,5) + [10,30) + [40,60) = 3 + 20 + 20
	if covered != 43 || gaps != 15 {
		t.Fatalf("coverage = %d covered, %d gaps; want 43 and 15", covered, gaps)
	}
	if c, g := coverage(nil, 0, 9); c != 0 || g != 9 {
		t.Fatalf("empty coverage = %d, %d", c, g)
	}
}

func TestTailPct(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {150, 90}, {20, 50}} {
		if p := tailPct(c.n); p != c.want {
			t.Errorf("tailPct(%d) = %v, want %v", c.n, p, c.want)
		}
	}
}

// TestServedCheckCatchesWrongAnswers keeps the serving output check from
// passing vacuously.
func TestServedCheckCatchesWrongAnswers(t *testing.T) {
	w := []float64{0.5, -2, 0, 1}
	rows := []columnsgd.SparseVector{{Indices: []int32{0, 1, 3}, Values: []float64{1, 1, 0.25}}}
	byVersion := map[int64][]float64{1: w}
	margin := 0.5 - 2 + 0.25
	cases := []struct {
		name   string
		s      served
		failed int64
	}{
		{"exact", served{0, 1, -1, margin}, 0},
		{"wrong margin", served{0, 1, -1, margin + 1e-9}, 1},
		{"wrong label", served{0, 1, 1, margin}, 1},
		{"unknown version", served{0, 2, -1, margin}, 1},
	}
	for _, c := range cases {
		rep := &report{result: result{Metrics: map[string]metric{}}}
		checkServed(rep, []served{c.s}, rows, byVersion)
		if rep.Failed != c.failed {
			t.Errorf("%s: %d failures, want %d (%v)", c.name, rep.Failed, c.failed, rep.checks)
		}
	}
}

// TestBenchmarkJSONListsReportedMetrics keeps BENCHMARK.json and the
// metrics the program reports in step.
func TestBenchmarkJSONListsReportedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		sort.Strings(names)
		t.Errorf("BENCHMARK.json lists workloads %v; the program has %d", names, len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
