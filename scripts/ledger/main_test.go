package main

import (
	"math"
	"testing"
)

func TestParseOutput(t *testing.T) {
	out := []byte(`goos: linux
BenchmarkDiscoverRequest/date1826x7-2         	     300	   1005742 ns/op	  65.39 MB/s	   25821 B/op	     253 allocs/op
BenchmarkApplyBatchConcurrent-8   	    1000	    326652 ns/op	         3.980 records/commit	  160293 B/op	    1760 allocs/op
BenchmarkDecideImplied12 	 100	 20 ns/op
PASS
`)
	got, err := parseOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]sample{
		"BenchmarkDiscoverRequest/date1826x7": {"ns/op": 1005742, "MB/s": 65.39, "B/op": 25821, "allocs/op": 253},
		"BenchmarkApplyBatchConcurrent":       {"ns/op": 326652, "records/commit": 3.98, "B/op": 160293, "allocs/op": 1760},
		"BenchmarkDecideImplied12":            {"ns/op": 20},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, s := range want {
		for unit, v := range s {
			if got[name][unit] != v {
				t.Errorf("%s %s = %v, want %v", name, unit, got[name][unit], v)
			}
		}
	}
	if _, err := parseOutput([]byte("BenchmarkX-2 10 5 ns/op 7\n")); err == nil {
		t.Error("a line with a value but no unit parsed")
	}
}

func TestSignTest(t *testing.T) {
	for _, tc := range []struct {
		wins, losses int
		p            float64
	}{
		{10, 0, 2.0 / 1024},
		{9, 1, 22.0 / 1024},
		{8, 2, 112.0 / 1024},
		{5, 5, 1},
		{0, 0, 1},
		{1, 9, 22.0 / 1024},
	} {
		if p := signTest(tc.wins, tc.losses); math.Abs(p-tc.p) > 1e-9 {
			t.Errorf("signTest(%d, %d) = %v, want %v", tc.wins, tc.losses, p, tc.p)
		}
	}
}

func TestVerdictRule(t *testing.T) {
	base := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	faster := []float64{80, 81, 79, 82, 80, 78, 81, 80, 79, 99}
	if c := compare(base, faster); verdict(c) != "faster" || c.Wins != 10 {
		t.Errorf("a clear win reads %s (%+v)", verdict(c), c)
	}
	// Nine wins of ten, but by less than the base's spread.
	close := []float64{99, 101, 97, 100, 98, 99, 102, 96, 99, 102}
	if c := compare(base, close); verdict(c) != "unresolved" {
		t.Errorf("a win inside the base's IQR reads %s (%+v)", verdict(c), c)
	}
	// The same run twice is never resolved.
	if c := compare(base, base); verdict(c) != "unresolved" || c.P != 1 {
		t.Errorf("identical runs read %s (%+v)", verdict(c), c)
	}
	if c := compare(faster, base); verdict(c) != "slower" {
		t.Errorf("a clear loss reads %s (%+v)", verdict(c), c)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median = %v, want 2.5", q)
	}
	if q := quantile(xs, 0.25); q != 1.75 {
		t.Errorf("first quartile = %v, want 1.75", q)
	}
	if q := quantile([]float64{7}, 0.75); q != 7 {
		t.Errorf("quantile of one = %v", q)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("the median of nothing is a number")
	}
}
