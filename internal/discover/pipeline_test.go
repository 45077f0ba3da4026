package discover

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"odlib/internal/core"
	"odlib/internal/prover"
	"odlib/internal/warehouse"
)

// TestPipelineDifferentialClosure is the randomized differential test: the
// parallel pipeline and the sequential Discover may return different OD sets
// (the pipeline does not minimize within a lattice level), but their closures
// must be identical — each side's prover must imply every OD of the other.
func TestPipelineDifferentialClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	universe := core.L("A", "B", "C", "D")
	for trial := 0; trial < 25; trial++ {
		rows := 2 + rng.Intn(12)
		domain := 1 + rng.Intn(4)
		r := core.RandRelation(rng, universe, rows, domain)
		opts := Options{MaxLHS: 2, MaxRHS: 2}

		seq, err := Discover(r, opts)
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := Pipeline(context.Background(), r, PipelineOptions{
			Options: opts,
			Workers: 1 + rng.Intn(4),
		})
		if err != nil {
			t.Fatal(err)
		}

		// Every pipeline OD must genuinely hold on the instance.
		for _, od := range pipe.ODs {
			holds, v, err := r.Satisfies(od)
			if err != nil {
				t.Fatal(err)
			}
			if !holds {
				t.Fatalf("trial %d: pipeline accepted %s which fails on data (%v)\n%s", trial, od, v, r)
			}
		}

		seqProver := prover.New(seq.ODs)
		pipeProver := prover.New(pipe.ODs)
		if ok, err := seqProver.ImpliesAll(pipe.ODs); err != nil {
			t.Fatal(err)
		} else if !ok {
			t.Fatalf("trial %d: sequential closure does not cover pipeline result\nseq: %v\npipe: %v\n%s",
				trial, seq.ODs, pipe.ODs, r)
		}
		if ok, err := pipeProver.ImpliesAll(seq.ODs); err != nil {
			t.Fatal(err)
		} else if !ok {
			t.Fatalf("trial %d: pipeline closure does not cover sequential result\nseq: %v\npipe: %v\n%s",
				trial, seq.ODs, pipe.ODs, r)
		}

		if !pipe.Constants.Equal(seq.Constants) {
			t.Fatalf("trial %d: constants differ: %v vs %v", trial, pipe.Constants, seq.Constants)
		}
		// Both paths enumerate the identical candidate space.
		if int(pipe.Stats.Candidates) != seq.Candidates {
			t.Fatalf("trial %d: candidates %d vs %d", trial, pipe.Stats.Candidates, seq.Candidates)
		}
		if pipe.Stats.Accepted != uint64(len(pipe.ODs)) {
			t.Fatalf("trial %d: accepted %d but %d ODs", trial, pipe.Stats.Accepted, len(pipe.ODs))
		}
		if pipe.Stats.DataChecks+pipe.Stats.ClosurePruned+pipe.Stats.RefutationPruned > pipe.Stats.Candidates {
			t.Fatalf("trial %d: stats overflow candidates: %+v", trial, pipe.Stats)
		}
	}

	// The data-check floor, on the one-year date dimension: over the same
	// candidate space the pipeline's pruning must keep at least half of the
	// sequential baseline's candidates away from the data (878 vs 7,979
	// when written). Both are exact counts, the same at any worker count
	// (TestPipelineSchedulerIndependence).
	cfg := warehouse.DefaultConfig()
	cfg.Days, cfg.FactRows = 365, 0
	w, err := warehouse.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dates, err := w.DateDimRelation()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxLHS: 2, MaxRHS: 3}
	seq, err := Discover(dates, opts)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := Pipeline(context.Background(), dates, PipelineOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if int(pipe.Stats.Candidates) != seq.Candidates {
		t.Fatalf("date dimension: candidates %d vs %d", pipe.Stats.Candidates, seq.Candidates)
	}
	if 2*pipe.Stats.DataChecks > uint64(seq.DataChecks) {
		t.Fatalf("date dimension: pipeline checked %d candidates against the data, sequential %d: less than a 2x cut",
			pipe.Stats.DataChecks, seq.DataChecks)
	}
}

// TestPipelineSchedulerIndependence backs the CI gate: every pruning counter
// must be identical across worker counts, because which candidates reach the
// data depends only on previous levels' committed state, never on worker
// interleaving. GOMAXPROCS+2 workers asked for run as GOMAXPROCS, so that
// case exercises the clamp.
func TestPipelineSchedulerIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := core.RandRelation(rng, core.L("A", "B", "C", "D", "E"), 40, 4)
	opts := Options{MaxLHS: 2, MaxRHS: 2}

	var base *PipelineResult
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0) + 2} {
		res, err := Pipeline(context.Background(), r, PipelineOptions{Options: opts, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Stats != base.Stats {
			t.Fatalf("stats differ across schedules:\nworkers=1: %+v\nworkers=%d: %+v",
				base.Stats, workers, res.Stats)
		}
		if len(res.ODs) != len(base.ODs) {
			t.Fatalf("OD count differs across schedules: %d vs %d", len(base.ODs), len(res.ODs))
		}
		for i := range res.ODs {
			if res.ODs[i].Key() != base.ODs[i].Key() {
				t.Fatalf("OD order differs across schedules at %d: %s vs %s",
					i, base.ODs[i], res.ODs[i])
			}
		}
	}
}

// TestRunGroupsBoundedByGOMAXPROCS: however many workers a run asks for,
// no more than GOMAXPROCS groups are ever validated at once — a request's
// "workers" cannot start a goroutine per group.
func TestRunGroupsBoundedByGOMAXPROCS(t *testing.T) {
	groups := make([]*contextGroup, 1000)
	for i := range groups {
		groups[i] = &contextGroup{lhs: int32(i)}
	}
	var running, peak atomic.Int64
	out := runGroups(context.Background(), groups, workerCount(1<<20), func(g *contextGroup) groupOutcome {
		now := running.Add(1)
		for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
		}
		time.Sleep(20 * time.Microsecond) // long enough for unbounded workers to pile up
		running.Add(-1)
		return groupOutcome{checks: uint64(g.lhs)}
	})
	if procs := int64(runtime.GOMAXPROCS(0)); peak.Load() > procs {
		t.Fatalf("%d groups ran at once, GOMAXPROCS is %d", peak.Load(), procs)
	}
	for i, o := range out {
		if o.checks != uint64(i) {
			t.Fatalf("outcome %d belongs to group %d", i, o.checks)
		}
	}
}

// TestPipelineStress hammers the worker pool under -race: a shared prover
// pool, many workers, the shared sort cache, and a streaming callback all at once —
// on alternate trials over the model table the workers read unlocked, and
// over the catalog whose searches are what draw on the pool.
func TestPipelineStress(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pool := prover.NewPool(4)
	for trial := 0; trial < 8; trial++ {
		r := core.RandRelation(rng, core.L("A", "B", "C", "D", "E"), 64, 3)
		var streamed []core.OD
		res, err := pipeline(context.Background(), r, PipelineOptions{
			Options: Options{MaxLHS: 2, MaxRHS: 2},
			Workers: 8,
			Pool:    pool,
			OnFound: func(od core.OD) { streamed = append(streamed, od) },
		}, trial%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(streamed) != len(res.ODs) {
			t.Fatalf("trial %d: streamed %d ODs, result has %d", trial, len(streamed), len(res.ODs))
		}
		for i := range streamed {
			if streamed[i].Key() != res.ODs[i].Key() {
				t.Fatalf("trial %d: stream order diverges at %d", trial, i)
			}
		}
	}
}

// TestPipelineCancellation: a cancelled context aborts between candidates.
func TestPipelineCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := core.RandRelation(rng, core.L("A", "B", "C", "D"), 16, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Pipeline(ctx, r, PipelineOptions{Options: Options{MaxLHS: 2, MaxRHS: 2}}); err == nil {
		t.Fatal("expected a context error from a cancelled pipeline")
	}
}

// TestPipelineGuard: the attribute guard applies to the pipeline too.
func TestPipelineGuard(t *testing.T) {
	attrs := core.L("A", "B", "C", "D", "E", "F", "G", "H")
	r := core.MustRelation(attrs)
	if _, err := Pipeline(context.Background(), r, PipelineOptions{}); err == nil {
		t.Fatal("expected the MaxAttrs guard to reject 8 attributes")
	}
}

// TestPipelinePruningPathsAgree runs the model table and the catalog over the
// same inputs. Their verdicts are the same theorem's, so the two runs must be
// the same run: identical counters, identical ODs in identical order.
func TestPipelinePruningPathsAgree(t *testing.T) {
	type input struct {
		name string
		r    *core.Relation
		opts Options
	}
	var inputs []input
	rng := rand.New(rand.NewSource(19))
	universe := core.L("A", "B", "C", "D", "E", "F")
	for trial := 0; trial < 25; trial++ {
		attrs := universe[:4+rng.Intn(3)]
		r := core.RandRelation(rng, attrs, 2+rng.Intn(30), 1+rng.Intn(4))
		inputs = append(inputs, input{fmt.Sprintf("trial %d", trial), r, Options{MaxLHS: 2, MaxRHS: 2}})
	}
	cfg := warehouse.DefaultConfig()
	cfg.Days, cfg.FactRows = 365, 0
	w, err := warehouse.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dates, err := w.DateDimRelation()
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"date dimension", dates, Options{MaxLHS: 2, MaxRHS: 3}})

	for _, in := range inputs {
		opts := PipelineOptions{Options: in.opts}
		table, err := pipeline(context.Background(), in.r, opts, true)
		if err != nil {
			t.Fatal(err)
		}
		cat, err := pipeline(context.Background(), in.r, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		if table.Stats != cat.Stats {
			t.Fatalf("%s: stats differ between pruning paths:\n  table: %+v\ncatalog: %+v", in.name, table.Stats, cat.Stats)
		}
		if !slices.EqualFunc(table.ODs, cat.ODs, core.OD.Equal) {
			t.Fatalf("%s: accepted ODs differ between pruning paths:\n  table: %v\ncatalog: %v", in.name, table.ODs, cat.ODs)
		}
	}
}

// TestPipelineWideRelation holds the catalog path to the sequential baseline
// where Pipeline still takes it: past maxTableAttrs attributes, which no run
// under the default MaxAttrs guard reaches. Half the columns are monotone in
// another, so there is a closure to prune by.
func TestPipelineWideRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	attrs := core.L("c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9")
	if len(attrs) <= maxTableAttrs {
		t.Fatalf("%d attributes no longer reach the catalog path", len(attrs))
	}
	r, err := core.NewRelationRows(attrs, 40, func(_ int, vals []core.Value) error {
		for j := 0; j < len(vals); j += 2 {
			v := int64(rng.Intn(12))
			vals[j], vals[j+1] = core.Int(v), core.Int(v/3)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxAttrs: 10, MaxLHS: 1, MaxRHS: 2}
	seq, err := Discover(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := Pipeline(context.Background(), r, PipelineOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Stats.ClosurePruned == 0 || pipe.Stats.Accepted == 0 {
		t.Fatalf("wide relation exercises no inference: %+v", pipe.Stats)
	}
	if int(pipe.Stats.Candidates) != seq.Candidates {
		t.Fatalf("candidates %d vs %d", pipe.Stats.Candidates, seq.Candidates)
	}
	for _, side := range []struct {
		name     string
		from, to []core.OD
	}{{"sequential", seq.ODs, pipe.ODs}, {"pipeline", pipe.ODs, seq.ODs}} {
		if ok, err := prover.New(side.from).ImpliesAll(side.to); err != nil {
			t.Fatal(err)
		} else if !ok {
			t.Fatalf("%s closure does not cover the other result\nseq: %v\npipe: %v", side.name, seq.ODs, pipe.ODs)
		}
	}
}
