package discover

import (
	"context"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
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
		Accepted:         12,
		Levels:           5,
	}
	if res.Stats != want {
		t.Fatalf("date dimension stats:\n got %+v\nwant %+v", res.Stats, want)
	}

	// The pruning plane works on list ids and bit planes, not strings and
	// searches: before the lattice was id-indexed a run cost 294,182
	// allocations, with closure pruning asked of a catalog 73,719, asked of
	// the model table 3,698; 3,144 while each refuted data check boxed its
	// witness, 2,565 since it comes back by value. The bound allows 135
	// more; under the race detector, whose sync.Pool forgets, the count
	// reads about 2,685 and the bound is 3,000.
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Pipeline(context.Background(), dates, PipelineOptions{Options: opts, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	maxAllocs := 2_700.0
	if raceDetector {
		maxAllocs = 3_000
	}
	if allocs > maxAllocs {
		t.Fatalf("date dimension: %.0f allocations per pipeline run, want at most %.0f", allocs, maxAllocs)
	}
	t.Logf("date dimension: %.0f allocations per pipeline run", allocs)

	// The table the run ended with: its 12 ODs leave 65 of the 3⁷ sign
	// vectors alive, re-packed from 35 words into 2, so the run's last
	// questions fold 2 words where they folded 35.
	tbl := newModelTable(dates.Attrs())
	words := len(tbl.alive)
	for _, od := range res.ODs {
		tbl.accept(od)
	}
	living := 0
	for _, w := range tbl.alive {
		living += bits.OnesCount64(w)
	}
	if words != 35 || living != 65 || len(tbl.alive) != 2 {
		t.Fatalf("date dimension: the accepted set leaves %d patterns in %d words (%d before any OD), want 65 in 2 (35)", living, len(tbl.alive), words)
	}

	// And in bytes, on both of the workload's relations: 934 KB a date run
	// while every context was a sort of the whole relation into an []int
	// index, 634 KB with contexts refined from their prefixes into int32,
	// 204 KB with their arrays pooled across runs (592 to 665 under the race
	// detector, whose sync.Pool forgets); a 4,000 x 6 random run 813 KB
	// before pooling, 69 KB after (719 to 792 under the race detector).
	bound := uint64(255)
	if raceDetector {
		bound = 850
	}
	if kb := kbPerRun(t, dates, opts); kb > bound {
		t.Fatalf("date dimension: %d KB allocated per pipeline run, want at most %d", kb, bound)
	}
	rnd, rndOpts := random4000x6()
	bound = 90
	if raceDetector {
		bound = 1000
	}
	if kb := kbPerRun(t, rnd, rndOpts); kb > bound {
		t.Fatalf("4,000 x 6 random relation: %d KB allocated per pipeline run, want at most %d", kb, bound)
	}
}

// kbPerRun is the heap a one-worker pipeline run allocates, in KB, averaged
// over three runs after one that warms the pools.
func kbPerRun(t *testing.T, r *core.Relation, opts Options) uint64 {
	t.Helper()
	run := func() {
		if _, err := Pipeline(context.Background(), r, PipelineOptions{Options: opts, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	const runs = 3
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	run()
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs >> 10
}

// random4000x6 is the workload's secondary relation — 4,000 uniform random
// rows over six attributes of 50 values, which hold no OD — and its options.
func random4000x6() (*core.Relation, Options) {
	return core.RandRelation(rand.New(rand.NewSource(1)), core.L("r0", "r1", "r2", "r3", "r4", "r5"), 4000, 50), Options{MaxLHS: 2, MaxRHS: 2}
}

// TestKeepRedundantKeepsNoPruningState: KeepRedundant asks no implication
// question, so neither path may build or extend the state that answers one.
// On the date dimension the pipeline then accepts every candidate that holds
// among the data checks refutation propagation leaves: the 12 it otherwise
// accepts, the 18 it otherwise finds implied at a level's commit, and the
// 2,348 it otherwise closure-prunes (12 + 18 + 2,348), in 21,461 allocations when written (12,831 of them core's OD.Key, once
// per accepted OD, for the commit order) — with a catalog Applied at every
// level it was 2.72 M — and the sequential baseline, which used to Add each of
// its acceptances to a catalog and take two minutes, finds the same set.
func TestKeepRedundantKeepsNoPruningState(t *testing.T) {
	dates, opts := dateDim(t)
	opts.KeepRedundant = true
	res, err := Pipeline(context.Background(), dates, PipelineOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Stats; s.Accepted != 12+18+2348 || s.DataChecks != 2957 || s.ClosurePruned != 0 {
		t.Fatalf("keepRedundant date dimension: accepted %d, data checks %d, closure-pruned %d; want 2378, 2957, 0",
			s.Accepted, s.DataChecks, s.ClosurePruned)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Pipeline(context.Background(), dates, PipelineOptions{Options: opts, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 25_000 {
		t.Fatalf("keepRedundant date dimension: %.0f allocations per pipeline run, want at most 25,000", allocs)
	}

	seq, err := Discover(dates, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(ods []core.OD) []string {
		out := make([]string, len(ods))
		for i, od := range ods {
			out[i] = od.Key()
		}
		slices.Sort(out)
		return out
	}
	if got, want := keys(res.ODs), keys(seq.ODs); !slices.Equal(got, want) {
		t.Fatalf("keepRedundant date dimension: pipeline kept %d ODs, sequential %d, and the sets differ", len(got), len(want))
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
	r, opts := random4000x6()
	benchmarkPipeline(b, r, opts)
}

// BenchmarkPruneDateDim is the inference of one date-dimension run on its
// own: the 2,957 candidates refutation propagation leaves, context group by
// context group, asked of the table holding the run's final accepted set — the
// same traffic prover's BenchmarkDecideDateDimMix prices per search. The
// table is the one the run ends with, its 65 living patterns re-packed into
// two words, so each question folds 2 words where the shared planes' layout
// folded 35; a run itself asks its first two levels over 35 words and its
// third over 4.
func BenchmarkPruneDateDim(b *testing.B) {
	dates, opts := dateDim(b)
	res, err := Pipeline(context.Background(), dates, PipelineOptions{Options: opts})
	if err != nil {
		b.Fatal(err)
	}
	tbl := newModelTable(dates.Attrs())
	for _, od := range res.ODs {
		tbl.accept(od)
	}
	// Walk the lattice as a run does, refuting from the data, to collect
	// what each level asks.
	la := newLattice(dates.Attrs(), opts.MaxLHS, opts.MaxRHS)
	var groups []*contextGroup
	questions, holding := 0, 0
	for level := 1; level <= opts.MaxLHS+opts.MaxRHS; level++ {
		asked := la.levelGroups(level, &PipelineStats{})
		for _, g := range asked {
			for _, rhs := range g.rhss {
				questions++
				holds, v, err := dates.Satisfies(core.NewOD(la.lists[g.lhs], la.lists[rhs]))
				if err != nil {
					b.Fatal(err)
				}
				if holds {
					holding++
				} else {
					la.refuted[g.lhs*la.nRHS+rhs] = v.Kind
				}
			}
		}
		groups = append(groups, asked...)
	}
	if questions != 2957 || holding != 12+18+2348 {
		b.Fatalf("%d questions, %d hold on the data; want 2957 and 2378", questions, holding)
	}

	b.ReportAllocs()
	for b.Loop() {
		implied := 0
		for _, g := range groups {
			le := tbl.under(la.pos[g.lhs])
			for _, rhs := range g.rhss {
				if tbl.orders(le, la.pos[rhs]) {
					implied++
				}
			}
		}
		// The accepted set is complete for the space: it implies exactly
		// what holds.
		if implied != holding {
			b.Fatalf("%d of %d questions implied, want %d", implied, questions, holding)
		}
	}
}
