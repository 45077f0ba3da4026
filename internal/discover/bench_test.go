package discover

import (
	"context"
	"math/rand"
	"testing"

	"odlib/internal/core"
	"odlib/internal/warehouse"
)

// dateDim builds the 1,826-day date dimension of bench/'s discover-date
// workload, and the options that workload mines it with.
func dateDim(tb testing.TB) (*core.Relation, Options) {
	tb.Helper()
	cfg := warehouse.DefaultConfig()
	cfg.Days, cfg.FactRows = 1826, 0
	w, err := warehouse.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	dates, err := w.DateDimRelation()
	if err != nil {
		tb.Fatal(err)
	}
	return dates, Options{MaxLHS: 2, MaxRHS: 3}
}

// TestPipelineDateDimCounts is the discovery floor as exact counts: what the
// pipeline enumerates, prunes, checks and accepts on the five-year date
// dimension, and how many allocations a run costs. The counters are
// scheduler-independent (TestPipelineSchedulerIndependence); a change that
// moves one has changed what discovery does, not how fast it does it.
func TestPipelineDateDimCounts(t *testing.T) {
	dates, opts := dateDim(t)
	res, err := Pipeline(context.Background(), dates, PipelineOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	want := PipelineStats{
		Candidates:       12859,
		ClosurePruned:    2348,
		RefutationPruned: 9902,
		DataChecks:       609,
		RowsScanned:      (609 + 2*38) * 1826,
		CacheHits:        66,
		CacheMisses:      38,
		Accepted:         30,
		Levels:           5,
	}
	if res.Stats != want {
		t.Fatalf("date dimension stats:\n got %+v\nwant %+v", res.Stats, want)
	}

	// The pruning plane works on list ids, not strings: before the lattice
	// was id-indexed a run cost 294,182 allocations, after 73,719. What
	// remains is the catalog's closure pruning.
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Pipeline(context.Background(), dates, PipelineOptions{Options: opts, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 150_000 {
		t.Fatalf("date dimension: %.0f allocations per pipeline run, want at most 150,000", allocs)
	}
}

func benchmarkPipeline(b *testing.B, r *core.Relation, opts Options) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Pipeline(context.Background(), r, PipelineOptions{Options: opts}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineDateDim is one in-process run of bench/'s primary
// discover-date operation, without HTTP and row decode.
func BenchmarkPipelineDateDim(b *testing.B) {
	dates, opts := dateDim(b)
	benchmarkPipeline(b, dates, opts)
}

// BenchmarkPipelineRandom4000x6 is the workload's secondary operation: a
// uniform random relation that holds no OD.
func BenchmarkPipelineRandom4000x6(b *testing.B) {
	r := core.RandRelation(rand.New(rand.NewSource(1)), core.L("r0", "r1", "r2", "r3", "r4", "r5"), 4000, 50)
	benchmarkPipeline(b, r, Options{MaxLHS: 2, MaxRHS: 2})
}
