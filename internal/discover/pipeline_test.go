package discover

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odlib/internal/core"
	"odlib/internal/prover"
	"odlib/internal/warehouse"
)

// checkEqualsDiscover holds both of the pipeline's pruning paths to the
// reference: the same ODs in the same acceptance order, the same constants,
// the same candidate space, no OD listed twice — and, unless KeepRedundant,
// none implied by the ODs listed before it. It returns the reference's result.
func checkEqualsDiscover(t *testing.T, name string, r *core.Relation, opts Options, workers int) *Result {
	t.Helper()
	seq, err := Discover(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	distinct(t, name+", Discover", seq.ODs)
	for _, useTable := range []bool{true, false} {
		pipe, err := pipeline(context.Background(), r, PipelineOptions{Options: opts, Workers: workers}, useTable)
		if err != nil {
			t.Fatal(err)
		}
		at := fmt.Sprintf("%s, %+v, table=%v", name, opts, useTable)
		if !slices.EqualFunc(pipe.ODs, seq.ODs, core.OD.Equal) {
			t.Fatalf("%s: the pipeline's ODs differ from Discover's\npipe: %v\n seq: %v\n%s", at, pipe.ODs, seq.ODs, r)
		}
		if !pipe.Constants.Equal(seq.Constants) {
			t.Fatalf("%s: constants %v vs %v", at, pipe.Constants, seq.Constants)
		}
		if int(pipe.Stats.Candidates) != seq.Candidates {
			t.Fatalf("%s: candidates %d vs %d", at, pipe.Stats.Candidates, seq.Candidates)
		}
		if pipe.Stats.Accepted != uint64(len(pipe.ODs)) {
			t.Fatalf("%s: accepted %d but %d ODs", at, pipe.Stats.Accepted, len(pipe.ODs))
		}
		if st := pipe.Stats; st.DataChecks+st.ClosurePruned+st.RefutationPruned > st.Candidates {
			t.Fatalf("%s: stats overflow candidates: %+v", at, st)
		}
	}
	if opts.KeepRedundant {
		return seq
	}
	for i, od := range seq.ODs {
		if implied, err := prover.New(seq.ODs[:i]).Implies(od); err != nil {
			t.Fatal(err)
		} else if implied {
			t.Fatalf("%s: %s is implied by the ODs before it, %s", name, od, core.ODsString(seq.ODs[:i]))
		}
	}
	return seq
}

// distinct fails when a result lists one OD twice.
func distinct(t *testing.T, name string, ods []core.OD) {
	t.Helper()
	seen := make(map[string]bool, len(ods))
	for _, od := range ods {
		if seen[od.Key()] {
			t.Fatalf("%s lists %s twice: %s", name, od, core.ODsString(ods))
		}
		seen[od.Key()] = true
	}
}

// TestPipelineDifferentialClosure is the randomized differential test:
// whatever the relation, bounds, KeepRedundant and pruning path, the pipeline
// returns exactly the reference's ODs — equal sets, so equal closures too.
// TestConstants holds the two fixed relations with constant columns.
func TestPipelineDifferentialClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	universe := core.L("A", "B", "C", "D", "E")
	for trial := 0; trial < 50; trial++ {
		attrs := universe[:3+rng.Intn(3)]
		r := core.RandRelation(rng, attrs, 2+rng.Intn(12), 1+rng.Intn(4))
		opts := Options{MaxLHS: 1 + rng.Intn(2), MaxRHS: 1 + rng.Intn(3)}
		workers := 1 + rng.Intn(4)
		for _, opts.KeepRedundant = range []bool{false, true} {
			checkEqualsDiscover(t, fmt.Sprintf("trial %d", trial), r, opts, workers)
		}
	}

	// The data-check floor, on the one-year date dimension: over the same
	// candidate space the pipeline's pruning must keep at least half of the
	// sequential baseline's candidates away from the data (878 vs 7,980
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
	if !slices.EqualFunc(pipe.ODs, seq.ODs, core.OD.Equal) {
		t.Fatalf("date dimension: the pipeline's ODs differ from Discover's\npipe: %v\n seq: %v", pipe.ODs, seq.ODs)
	}
}

// decodeRun reads a discovery run from fuzz bytes, one byte per decision: the
// attribute count (1–5), the row count (0–16), the domain (1–4), MaxLHS
// (1–2), MaxRHS (1–3), KeepRedundant (the low bit), then the cells row by
// row. Missing bytes read as 0.
func decodeRun(data []byte) (*core.Relation, Options) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	attrs := core.L("A", "B", "C", "D", "E")[:1+next()%5]
	rows, domain := next()%17, 1+next()%4
	opts := Options{MaxLHS: 1 + next()%2, MaxRHS: 1 + next()%3, KeepRedundant: next()&1 == 1}
	r, err := core.NewRelationRows(attrs, rows, func(_ int, vals []core.Value) error {
		for j := range vals {
			vals[j] = core.Int(int64(next() % domain))
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return r, opts
}

// FuzzPipelineAgainstDiscover is TestPipelineDifferentialClosure's property
// under the native fuzzer. The seeds are TestConstants' two fixed relations — one
// constant column, two — with and without KeepRedundant, and a five-column
// relation at the widest bounds.
func FuzzPipelineAgainstDiscover(f *testing.F) {
	for _, keep := range []byte{0, 1} {
		f.Add([]byte{1, 2, 1, 1, 1, keep, 1, 0, 1, 1})
		f.Add([]byte{1, 2, 1, 1, 1, keep, 1, 1, 1, 1})
		f.Add([]byte{4, 8, 3, 1, 2, keep, 0, 1, 2, 0, 1, 2, 2, 1, 0, 0, 1, 1, 2, 2, 0, 1, 1, 0, 0, 2, 1, 1, 2, 0, 0, 2, 1, 0, 1, 1, 2, 0, 2, 2, 1, 0, 0, 0, 1, 1})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, opts := decodeRun(data)
		checkEqualsDiscover(t, "fuzz input", r, opts, 2)
	})
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
// "workers" cannot start a goroutine per group — every group is answered
// once, and each by a worker whose share exists.
func TestRunGroupsBoundedByGOMAXPROCS(t *testing.T) {
	const groups = 1000
	workers := workerCount(1 << 20)
	var running, peak atomic.Int64
	var answered [groups]atomic.Int32
	runGroups(groups, workers, func(w, g int) {
		now := running.Add(1)
		for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
		}
		time.Sleep(20 * time.Microsecond) // long enough for unbounded workers to pile up
		running.Add(-1)
		if w < 0 || w >= workers {
			t.Errorf("group %d answered by worker %d of %d", g, w, workers)
		}
		answered[g].Add(1)
	})
	if procs := int64(runtime.GOMAXPROCS(0)); peak.Load() > procs {
		t.Fatalf("%d groups ran at once, GOMAXPROCS is %d", peak.Load(), procs)
	}
	for g := range answered {
		if n := answered[g].Load(); n != 1 {
			t.Fatalf("group %d answered %d times", g, n)
		}
	}
}

// TestPipelineStress hammers the worker pool under -race: a shared prover
// pool, many workers, the shared sort cache, and a streaming callback all at once —
// on alternate trials over the model table the workers read unlocked, and
// over the catalog whose searches are what draw on the pool. Then four
// goroutines run pipelines at once, each alternating the workload's two
// relations — the 1,826 x 7 date dimension and the 4,000 x 6 random relation —
// so every run's sort cache draws arrays another run of either size released,
// and every result must equal its relation's sequential reference.
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

	type run struct {
		r    *core.Relation
		opts Options
		want *PipelineResult
	}
	var runs [2]run
	runs[0].r, runs[0].opts = dateDim(t)
	runs[1].r, runs[1].opts = random4000x6()
	for i := range runs {
		want, err := Pipeline(context.Background(), runs[i].r, PipelineOptions{Options: runs[i].opts, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		runs[i].want = want
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 {
				in := runs[(g+i)%2]
				got, err := Pipeline(context.Background(), in.r, PipelineOptions{Options: in.opts, Workers: 2})
				if err != nil {
					t.Error(err)
					return
				}
				if got.Stats != in.want.Stats || !slices.EqualFunc(got.ODs, in.want.ODs, core.OD.Equal) {
					t.Errorf("goroutine %d, run %d: %+v %v, the sequential reference %+v %v", g, i, got.Stats, got.ODs, in.want.Stats, in.want.ODs)
					return
				}
			}
		}()
	}
	wg.Wait()
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
	if !slices.EqualFunc(pipe.ODs, seq.ODs, core.OD.Equal) {
		t.Fatalf("the pipeline's ODs differ from Discover's\npipe: %v\n seq: %v", pipe.ODs, seq.ODs)
	}
}
