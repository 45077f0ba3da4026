package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is ../BENCHMARK.json as far as the program mirrors it.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, file, prog []metricSpec) {
		if len(file) != len(prog) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the program %d", len(file), kind, len(prog))
		}
		for i := range file {
			if file[i] != prog[i] {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json and %+v in the program", kind, i, file[i], prog[i])
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted holds a run to its metric list: every name once (the map
// cannot hold a name twice), with the listed unit and a finite value, and
// nothing else.
func checkEmitted(t *testing.T, r *result, specs []metricSpec, nonZero bool) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", r.Workload, r.Trace, r.Correct, r.Attempted, r.Failed, r.Errors)
	}
	if len(r.Metrics) != len(specs) {
		t.Errorf("%s trace=%v: %d metrics emitted, %d listed", r.Workload, r.Trace, len(r.Metrics), len(specs))
	}
	for _, s := range specs {
		v, ok := r.Metrics[s.Name]
		switch {
		case !metricName.MatchString(s.Name):
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", s.Name)
		case !ok:
			t.Errorf("%s trace=%v: %s not emitted", r.Workload, r.Trace, s.Name)
		case v.Unit != s.Unit:
			t.Errorf("%s trace=%v: %s has unit %q, listed %q", r.Workload, r.Trace, s.Name, v.Unit, s.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s trace=%v: %s is %v", r.Workload, r.Trace, s.Name, v.Value)
		case nonZero && v.Value <= 0:
			t.Errorf("%s trace=%v: %s is %v; end-to-end metrics are never zero", r.Workload, r.Trace, s.Name, v.Value)
		}
	}
}

// TestSmoke runs every workload end to end and traced at a fraction of its
// real length. Like a real run it writes under out/, which git ignores.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			r, err := runOne(ctx, name, 1, 0.4, false)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, r, endToEnd, true)
			r, err = runOne(ctx, name, 1, 0.4, true)
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			checkEmitted(t, r, perLayer, false)
			if _, err := os.Stat(outDir + "/trace-" + name + ".jsonl"); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
