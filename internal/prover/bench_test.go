package prover_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"odlib/internal/core"
	"odlib/internal/discover"
	"odlib/internal/prover"
	"odlib/internal/warehouse"
)

// Per-layer micro-benchmarks of the prover (ROADMAP aim 1): what one decide
// costs on the shapes the repository's benchmark drives through the whole
// stack, without the stack. They call DecideCtx — no verdict cache — on a
// sequential prover, so ns/op and allocs/op are properties of the kernel
// alone. CI runs them at -benchtime=1x as a smoke; the allocation pins in
// TestDecideAllocations are the gate.

// chainSchema is the benchmark's chain shard: chains × links ODs
// [c<i>_<j>] ↦ [c<i>_<j+1>].
func chainSchema(chains, links int) []core.OD {
	var m []core.OD
	for c := 0; c < chains; c++ {
		for i := 0; i < links; i++ {
			m = append(m, core.NewOD(
				core.List{core.Attribute(fmt.Sprintf("c%d_%d", c, i))},
				core.List{core.Attribute(fmt.Sprintf("c%d_%d", c, i+1))}))
		}
	}
	return m
}

func mustOD(tb testing.TB, text string) core.OD {
	tb.Helper()
	ods, err := core.ParseStatements(text)
	if err != nil || len(ods) != 1 {
		tb.Fatalf("parse %q: %v (%d ODs)", text, err, len(ods))
	}
	return ods[0]
}

// The prove-search workload's two question shapes over three chains of the
// 12 × 5 shard: lo ↦ lo·hi is implied and entangles 12 attributes over nine
// widening rounds; hi ↦ hi·lo is refuted by the split table without a search.
const (
	implied12    = "[c0_0, c4_1, c9_2] -> [c0_0, c4_1, c9_2, c4_4, c9_5, c0_3]"
	splitRefuted = "[c4_4, c9_5, c0_3] -> [c4_4, c9_5, c0_3, c0_0, c4_1, c9_2]"
)

func benchDecide(b *testing.B, m []core.OD, questions []core.OD, wantImplied int) {
	p := prover.New(m)
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		implied := 0
		for _, q := range questions {
			v, err := p.DecideCtx(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			if v.Implied {
				implied++
			}
		}
		if implied != wantImplied {
			b.Fatalf("%d of %d questions implied, want %d", implied, len(questions), wantImplied)
		}
	}
}

func BenchmarkDecideImplied12(b *testing.B) {
	benchDecide(b, chainSchema(12, 5), []core.OD{mustOD(b, implied12)}, 1)
}

func BenchmarkDecideSplitRefuted(b *testing.B) {
	benchDecide(b, chainSchema(12, 5), []core.OD{mustOD(b, splitRefuted)}, 0)
}

// dateDimMix is the "is it already implied?" stream of discovery's closure
// pruning, priced per search: M is the OD set the pipeline accepts on a
// one-year date dimension (maxLHS 2, maxRHS 3) and the questions are every
// 16th candidate of its lattice. It is no longer the discover-date workload's
// prover traffic — up to 9 attributes the pipeline answers these from its
// model table (discover's BenchmarkPruneDateDim) — but the price that table
// avoids, and the one relations wider than that still pay.
func dateDimMix(tb testing.TB) (m, questions []core.OD, implied int) {
	tb.Helper()
	cfg := warehouse.DefaultConfig()
	cfg.Days, cfg.FactRows = 365, 0
	w, err := warehouse.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rel, err := w.DateDimRelation()
	if err != nil {
		tb.Fatal(err)
	}
	res, err := discover.Pipeline(context.Background(), rel, discover.PipelineOptions{Options: discover.Options{MaxLHS: 2, MaxRHS: 3}})
	if err != nil {
		tb.Fatal(err)
	}
	var lists []core.List
	var rec func(cur core.List)
	rec = func(cur core.List) {
		lists = append(lists, cur)
		if len(cur) == 3 {
			return
		}
		for _, a := range rel.Attrs() {
			if !cur.Contains(a) {
				rec(cur.Concat(core.List{a}))
			}
		}
	}
	rec(nil)
	oracle := prover.New(res.ODs)
	n := 0
	for _, lhs := range lists {
		for _, rhs := range lists {
			od := core.NewOD(lhs, rhs)
			if len(lhs) > 2 || len(rhs) == 0 || od.Trivial() {
				continue
			}
			if n++; n%16 != 0 {
				continue
			}
			questions = append(questions, od)
			ok, err := oracle.Implies(od)
			if err != nil {
				tb.Fatal(err)
			}
			if ok {
				implied++
			}
		}
	}
	return res.ODs, questions, implied
}

func BenchmarkDecideDateDimMix(b *testing.B) {
	m, questions, implied := dateDimMix(b)
	b.Logf("%d accepted ODs, %d questions, %d implied", len(m), len(questions), implied)
	benchDecide(b, m, questions, implied)
}

// BenchmarkProverNew256 is what every catalog mutation pays to rebuild its
// prover: the mutate-churn shard's 256 standing ODs.
func BenchmarkProverNew256(b *testing.B) {
	m := chainSchema(64, 4)
	b.ReportAllocs()
	for b.Loop() {
		if p := prover.New(m); len(p.Universe()) != 64*5 {
			b.Fatalf("universe of %d attributes", len(p.Universe()))
		}
	}
}

// TestDecideAllocations pins what a decide may allocate: its id-indexed
// tables and the witness once, a buffer regrowth now and then as the working
// set widens, and nothing per search node — the count must not move between
// a 500-node and a 30 000-node question. Allocation counts are deterministic,
// so unlike the benchmarks' wall clock this is a gate.
func TestDecideAllocations(t *testing.T) {
	const perDecide, perRound = 10, 1
	ctxChain := func(n int) (m []core.OD, q core.OD) {
		link := func(i int) core.List { return core.List{"zz", core.Attribute(fmt.Sprintf("a%02d", i))} }
		for i := 0; i+1 < n; i++ {
			m = append(m, core.NewOD(link(i), link(i+1)))
		}
		return m, core.NewOD(link(0), link(n-1))
	}
	heavyM, heavyQ := ctxChain(9)
	for _, tc := range []struct {
		name     string
		m        []core.OD
		q        core.OD
		minNodes uint64
	}{
		{"implied over 12 attributes", chainSchema(12, 5), mustOD(t, implied12), 0},
		{"split-refuted", chainSchema(12, 5), mustOD(t, splitRefuted), 0},
		{"uncuttable 10-attribute search", heavyM, heavyQ, 30000},
	} {
		var c prover.Counters
		p := prover.New(tc.m, prover.WithCounters(&c))
		decide := func() {
			if _, err := p.DecideCtx(context.Background(), tc.q); err != nil {
				t.Fatal(err)
			}
		}
		decide()
		rounds, nodes := c.Widenings.Load()+1, c.Nodes.Load()
		if nodes < tc.minNodes {
			t.Errorf("%s: %d nodes, fixture should take at least %d", tc.name, nodes, tc.minNodes)
		}
		allocs := testing.AllocsPerRun(50, decide)
		if limit := float64(perDecide + perRound*rounds); allocs > limit {
			t.Errorf("%s: %.0f allocations per decide over %d rounds and %d nodes, limit %.0f",
				tc.name, allocs, rounds, nodes, limit)
		}
		t.Logf("%s: %.0f allocations, %d rounds, %d nodes", tc.name, allocs, rounds, nodes)
	}
}

// TestRepeatedDecideAllocations pins what asking one prover again costs: a
// decide's scratch comes from the prover's own pool, so once a question of
// the shape has been asked, an implied decide allocates nothing and a
// refuted one only its witness (attribute list, the pattern's copy of it,
// signs and the pattern itself). The third question's attributes are all
// outside M. Before the pool each of these took 11 to 14 allocations. Under
// the race detector sync.Pool drops a quarter of its puts, so a decide now
// and then lays out its tables afresh; the bound there allows eight more.
func TestRepeatedDecideAllocations(t *testing.T) {
	slack := 0.0
	if raceDetector {
		slack = 8
	}
	p := prover.New(chainSchema(12, 5))
	for _, tc := range []struct {
		q       string
		implied bool
		allocs  float64
	}{
		{implied12, true, 0},
		{splitRefuted, false, 4},
		{"[x, y] -> [y, x]", false, 4},
	} {
		q := mustOD(t, tc.q)
		decide := func() {
			v, err := p.DecideCtx(context.Background(), q)
			if err != nil || v.Implied != tc.implied {
				t.Fatalf("%s: %+v, %v", tc.q, v, err)
			}
		}
		decide()
		allocs := testing.AllocsPerRun(100, decide)
		if allocs > tc.allocs+slack {
			t.Errorf("%s: %.0f allocations per repeated decide, want at most %.0f + %.0f", tc.q, allocs, tc.allocs, slack)
		}
		t.Logf("%s: %.0f allocations", tc.q, allocs)
	}
}

// TestWitnessOutlivesPooledState holds every witness to what it said when
// it was returned, after the prover has reused the decide state it came from
// for hundreds of other questions — refuted ones of the same width among
// them — and to what a witness must be: a model of M falsifying its question.
func TestWitnessOutlivesPooledState(t *testing.T) {
	m := chainSchema(12, 5)
	p := prover.New(m)
	rng := rand.New(rand.NewSource(5))
	type kept struct {
		q    core.OD
		w    *core.Pattern
		text string
	}
	var refuted []kept
	for i := 0; i < 400; i++ {
		q := core.RandOD(rng, p.Universe(), 3)
		v, err := p.DecideCtx(context.Background(), q)
		if err != nil {
			continue // past the attribute guard
		}
		if !v.Implied {
			refuted = append(refuted, kept{q, v.Witness, v.Witness.String()})
		}
	}
	if len(refuted) < 100 {
		t.Fatalf("only %d refuted questions drawn", len(refuted))
	}
	for _, k := range refuted {
		if got := k.w.String(); got != k.text {
			t.Fatalf("%s: witness changed under reuse of the decide state: %s, was %s", k.q, got, k.text)
		}
		if !k.w.HoldsAll(m) || k.w.HoldsOD(k.q) {
			t.Fatalf("%s: witness %s does not refute it under M", k.q, k.w)
		}
	}
}
