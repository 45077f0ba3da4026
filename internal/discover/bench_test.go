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
	// witness, 2,565 since it comes back by value, 153 since the lattice is
	// shared and the pruning state pooled, 76 since one scratch keeps the
	// sort cache's table, entries and keys, 75 since it keeps the cache
	// whole. The bound allows 135 more. The count is the same under the race detector: nothing here is
	// a sync.Pool, which under the detector forgot a quarter of its puts
	// (235 to 335 allocations then).
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Pipeline(context.Background(), dates, PipelineOptions{Options: opts, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if maxAllocs := 210.0; allocs > maxAllocs {
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
	// 204 KB with their arrays pooled across runs, 13 KB with the lattice
	// shared and the pruning state pooled, 6 KB with one scratch; a 4,000 x 6
	// random run 813 KB before pooling, 69 KB after, 7 KB with the pruning
	// state pooled, under 1 KB now. The bounds allow 51 and 21 KB more. The
	// race detector reads the same: while the pools were sync.Pools it read
	// 350 to 465 KB a date run and 676 to 922 a random one.
	bound := uint64(57)
	kb := kbPerRun(t, dates, opts)
	if kb > bound {
		t.Fatalf("date dimension: %d KB allocated per pipeline run, want at most %d", kb, bound)
	}
	t.Logf("date dimension: %d KB per pipeline run", kb)
	rnd, rndOpts := random4000x6()
	bound = 21
	if kb = kbPerRun(t, rnd, rndOpts); kb > bound {
		t.Fatalf("4,000 x 6 random relation: %d KB allocated per pipeline run, want at most %d", kb, bound)
	}
	t.Logf("4,000 x 6 random relation: %d KB per pipeline run", kb)
}

// TestPipelineRunAllocatesOnlyItsAnswer: a warm run builds nothing per
// candidate, per context group, per partition or per list of the lattice —
// the lattice is shared, the pruning state is one block kept with the sort
// cache's scratch, the cache's table, entries and keys are kept there too,
// and a candidate is named only once it holds. On the date dimension a
// run allocates its 12 accepted ODs, one block of names each, and a constant
// 63: the names and the key of each holding candidate a commit sorts (30, of
// which 18 turn out implied), and the run's result, its growth and one
// closure per level. The constant was 64 while each run allocated its sort
// cache, 145 while the cache built a map and two allocations per partition
// each run (141 measured),
// and 450 under the race detector, whose sync.Pool forgot; the count now
// reads the same with the detector and without.
func TestPipelineRunAllocatesOnlyItsAnswer(t *testing.T) {
	dates, opts := dateDim(t)
	var res *PipelineResult
	run := func() {
		var err error
		if res, err = Pipeline(context.Background(), dates, PipelineOptions{Options: opts, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(5, run)
	others := 63.0
	if len(res.ODs) != 12 || allocs > float64(len(res.ODs))+others {
		t.Fatalf("date dimension: %.0f allocations for %d accepted ODs, want at most one per OD and %.0f more", allocs, len(res.ODs), others)
	}
	t.Logf("date dimension: %.0f allocations, %d accepted ODs", allocs, len(res.ODs))
}

// kbPerRun is the heap a one-worker pipeline run allocates, in KB, averaged
// over three runs after one that warms the relation's scratch.
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

// benchmarkPipeline runs the pipeline over r and reports, beside the time,
// the physical work per run that TestPipelineKernelCounts pins. The relation
// is shared by every run, so only the first builds rank views.
func benchmarkPipeline(b *testing.B, r *core.Relation, opts Options) {
	b.ReportAllocs()
	var k core.KernelStats
	for b.Loop() {
		res, err := Pipeline(context.Background(), r, PipelineOptions{Options: opts})
		if err != nil {
			b.Fatal(err)
		}
		k.Add(res.Kernel)
	}
	n := float64(b.N)
	b.ReportMetric(float64(k.RefineRows)/n, "refine-rows/op")
	b.ReportMetric(float64(k.TieRows)/n, "tie-rows/op")
	b.ReportMetric(float64(k.SortedRows)/n, "sorted-rows/op")
	b.ReportMetric(float64(k.ProbeRows)/n, "probe-rows/op")
	b.ReportMetric(float64(k.ComparedRows)/n, "compared-rows/op")
	b.ReportMetric(float64(k.ScanPairs)/n, "scan-pairs/op")
	b.ReportMetric(float64(k.RankRows)/n, "rank-rows/op")
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
	sc := core.TakeScratch()
	run := newRun(sc, dates.Attrs(), opts.MaxLHS, opts.MaxRHS, 1)
	defer run.release(sc)
	type group struct {
		lhs  int32
		rhss []int32
	}
	var groups []group
	questions, holding := 0, 0
	for level := 1; level <= opts.MaxLHS+opts.MaxRHS; level++ {
		run.levelGroups(level, &PipelineStats{})
		for g, lhs := range run.groupLHS {
			rhss := slices.Clone(run.rhss[run.groupOff[g]:run.groupOff[g+1]])
			for _, rhs := range rhss {
				questions++
				holds, v, err := dates.Satisfies(run.name(lhs, rhs))
				if err != nil {
					b.Fatal(err)
				}
				if holds {
					holding++
				} else {
					run.refuted[lhs*run.nRHS+rhs] = v.Kind
				}
			}
			groups = append(groups, group{lhs, rhss})
		}
	}
	if questions != 2957 || holding != 12+18+2348 {
		b.Fatalf("%d questions, %d hold on the data; want 2957 and 2378", questions, holding)
	}

	var le []uint64
	b.ReportAllocs()
	for b.Loop() {
		implied := 0
		for _, g := range groups {
			le = tbl.under(le, run.la.list(g.lhs))
			for _, rhs := range g.rhss {
				if tbl.orders(le, run.la.list(rhs)) {
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

// TestPipelineKernelCounts pins the physical work of a run on both of
// bench/'s discover-date relations — rows refined, sorted and scanned, rank
// views built — at 1, 3 and GOMAXPROCS+2 workers: every count is taken once
// per published partition, check or view, so it may not follow the
// schedule. A kernel change states its cut in these counts; Stats, the
// logical counts, may not move with it.
func TestPipelineKernelCounts(t *testing.T) {
	for _, tc := range []struct {
		name     string
		relation func() (*core.Relation, Options)
		want     core.KernelStats
	}{
		// 29 contexts refined (30 before the probe), 8 sorted (the empty one
		// and 7 attributes); 3 decided on a prefix. Compared: the 644 of the
		// 1,272 probed rows whose classes are smaller than their attribute's
		// cardinality, and d_date (yyyymmdd: too sparse for the presence table) ranked by
		// sorting its values.
		{"date1826x7", func() (*core.Relation, Options) { return dateDim(t) }, core.KernelStats{
			RefineRows: 29 * 1826, TieRows: 29 * 1825, SortedRows: 8 * 1826,
			ProbeDecided: 3, ProbeRows: 1272, ComparedRows: 644 + 1826,
			ScanPairs: 92802, RankViews: 7, RankRows: 7 * 1826,
		}},
		// No context refined (30 before the probe): each of the 30
		// two-attribute contexts is decided on a prefix at levels 3 and 4;
		// 7 sorted (the empty one and 6 attributes). Compared: none of the 7,020
		// probed rows, since every probed class has at least as many rows as
		// its attribute has values.
		{"random4000x6", random4000x6, core.KernelStats{
			SortedRows: 7 * 4000, ProbeDecided: 60, ProbeRows: 7020,
			ScanPairs: 2776, RankViews: 6, RankRows: 6 * 4000,
		}},
	} {
		var first *PipelineResult
		for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0) + 2} {
			r, opts := tc.relation()
			res, err := Pipeline(context.Background(), r, PipelineOptions{Options: opts, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.Kernel != tc.want {
				t.Errorf("%s, %d workers: kernel counts\n got %+v\nwant %+v", tc.name, workers, res.Kernel, tc.want)
			}
			if first == nil {
				first = res
			} else if res.Stats != first.Stats {
				t.Errorf("%s, %d workers: stats %+v, at one worker %+v", tc.name, workers, res.Stats, first.Stats)
			}
		}
	}
}
