package odlib

// One benchmark per experiment of DESIGN.md's index (E1–E15): every figure
// and evaluation claim of the paper has a bench target that regenerates it.
// Run with: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"testing"

	"odlib/internal/armstrong"
	"odlib/internal/core"
	"odlib/internal/datetime"
	"odlib/internal/discover"
	"odlib/internal/engine"
	"odlib/internal/inference"
	"odlib/internal/monotone"
	"odlib/internal/plan"
	"odlib/internal/prover"
	"odlib/internal/rewrite"
	"odlib/internal/warehouse"
)

func mustODs(b *testing.B, text string) []core.OD {
	b.Helper()
	ods, err := core.ParseStatements(text)
	if err != nil {
		b.Fatal(err)
	}
	return ods
}

// E1 — Figure 1: OD and order-compatibility checks on the example relation.
func BenchmarkFigure1ODCheck(b *testing.B) {
	r := core.MustRelation(core.L("A", "B", "C", "D", "E", "F"))
	if err := r.AddIntRow(3, 2, 0, 4, 7, 9); err != nil {
		b.Fatal(err)
	}
	if err := r.AddIntRow(3, 2, 1, 3, 8, 9); err != nil {
		b.Fatal(err)
	}
	good := core.NewOD(core.L("A", "B", "C"), core.L("F", "E", "D"))
	bad := core.NewOD(core.L("A", "B", "C"), core.L("F", "D", "E"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _, _ := r.Satisfies(good); !ok {
			b.Fatal("Figure 1 positive case failed")
		}
		if ok, _, _ := r.Satisfies(bad); ok {
			b.Fatal("Figure 1 negative case failed")
		}
	}
}

// E2 — Figure 2: deriving every date-hierarchy path via the prover.
func BenchmarkFigure2DatePaths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := datetime.New()
		paths, err := h.DatePaths()
		if err != nil || len(paths) != len(datetime.Nodes()) {
			b.Fatalf("paths = %d, err = %v", len(paths), err)
		}
	}
}

// E3 — Figure 3: the Chain axiom instance; conclusion implied with the
// chain conditions, refuted without.
func BenchmarkFigure3Chain(b *testing.B) {
	with := mustODs(b, "[X] ~ [W]; [W] ~ [Z]; [X, W] ~ [W, Z]")
	without := mustODs(b, "[X] ~ [W]; [W] ~ [Z]")
	goal := core.OrderCompat(core.L("X"), core.L("Z"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p1 := prover.New(with)
		ok, err := p1.ImpliesAll(goal)
		if err != nil || !ok {
			b.Fatal("chain conclusion should be implied")
		}
		p2 := prover.New(without)
		ok, err = p2.ImpliesAll(goal)
		if err != nil || ok {
			b.Fatal("chain conclusion should be refuted without the side conditions")
		}
	}
}

// E4 — Figures 4–6: the append operation.
func BenchmarkAppend(b *testing.B) {
	attrs := core.L("A", "B", "C", "D")
	t1 := core.MustRelation(attrs)
	t2 := core.MustRelation(attrs)
	for i := int64(0); i < 64; i++ {
		if err := t1.AddIntRow(i, i%7, i%5, i%3); err != nil {
			b.Fatal(err)
		}
		if err := t2.AddIntRow(i%3, i, i%7, i%5); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := armstrong.Append(t1, t2); err != nil {
			b.Fatal(err)
		}
	}
}

// E5 — Figure 7: the split (Ullman) construction.
func BenchmarkFigure7Split(b *testing.B) {
	m := mustODs(b, "[A] -> [A, B]; [B] -> [B, C]")
	universe := core.L("A", "B", "C", "D")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := armstrong.SplitTable(m, universe); err != nil {
			b.Fatal(err)
		}
	}
}

// E6 — Figure 8: the swap construction with context freezing.
func BenchmarkSwapConstruction(b *testing.B) {
	m := mustODs(b, "[C, A] ~ [C, B]")
	universe := core.L("A", "B", "C")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := armstrong.NewBuilder(0).SwapTable(m, universe); err != nil {
			b.Fatal(err)
		}
	}
}

// E7 — Figure 9: the empty-context swap inside the full canonical table.
func BenchmarkFigure9EmptyContext(b *testing.B) {
	m := mustODs(b, "[A] ~ [C]")
	universe := core.L("A", "B", "C")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := armstrong.NewBuilder(0).CanonicalTable(m, universe); err != nil {
			b.Fatal(err)
		}
	}
}

// E8 — Example 1: the order/group query with and without the OD rewrite.
func benchmarkExample1(b *testing.B, withOD bool) {
	tbl, err := engine.NewTable("sales", core.L("year", "quarter", "month", "amount"))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 30_000; i++ {
		m := 1 + i%12
		if err := tbl.Insert(
			core.Int(int64(2000+i%5)), core.Int(int64((m-1)/3+1)),
			core.Int(int64(m)), core.Int(int64(i%997))); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tbl.BuildIndex("ym", core.L("year", "month")); err != nil {
		b.Fatal(err)
	}
	c := rewrite.NewConstraints(nil, nil)
	if withOD {
		c = rewrite.NewConstraints(nil, mustODs(b, "[month] -> [quarter]"))
	}
	planner := plan.NewPlanner(c)
	q := plan.Query{
		Table:   tbl,
		GroupBy: core.L("year", "quarter", "month"),
		Aggs:    []engine.Agg{{Kind: engine.Sum, Attr: "amount", As: "s"}},
		OrderBy: core.L("year", "quarter", "month"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var stats engine.Stats
		pl, err := planner.PlanQuery(context.Background(), q, &stats)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := pl.Execute(&stats)
		if err != nil || len(rows) != 60 {
			b.Fatalf("rows = %d, err = %v", len(rows), err)
		}
	}
}

func BenchmarkExample1OrderBySort(b *testing.B)      { benchmarkExample1(b, false) }
func BenchmarkExample1OrderByRewritten(b *testing.B) { benchmarkExample1(b, true) }

// E9 — Example 5: the taxes query with derived monotone ODs.
func BenchmarkExample5Taxes(b *testing.B) {
	income := monotone.Col("income")
	generated := map[core.Attribute]monotone.Expr{
		"bracket": monotone.Step{E: income, Thresholds: []int64{20000, 50000, 100000}, Outputs: []int64{1, 2, 3}, Last: 4},
		"payable": monotone.Div{E: monotone.Scale{E: income, K: 25}, K: 100},
	}
	ods := monotone.DeriveODs(generated)
	tbl, err := engine.NewTable("taxes", core.L("income", "bracket", "payable"))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		inc := core.Int(int64((i * 7919) % 250000))
		row := map[core.Attribute]core.Value{"income": inc}
		br, _ := generated["bracket"].Eval(row)
		pay, _ := generated["payable"].Eval(row)
		if err := tbl.Insert(inc, br, pay); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tbl.BuildIndex("income", core.L("income")); err != nil {
		b.Fatal(err)
	}
	planner := plan.NewPlanner(rewrite.NewConstraints(nil, ods))
	q := plan.Query{Table: tbl, OrderBy: core.L("bracket", "payable")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var stats engine.Stats
		pl, err := planner.PlanQuery(context.Background(), q, &stats)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pl.Execute(&stats); err != nil {
			b.Fatal(err)
		}
		if stats.Sorts != 0 {
			b.Fatal("rewritten taxes plan must not sort")
		}
	}
}

// E10/E11 — the TPC-DS-style suites: per-iteration full run at bench scale.
func benchmarkSuite(b *testing.B, extension bool) {
	cfg := warehouse.DefaultConfig()
	cfg.FactRows = 30_000
	w, err := warehouse.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	queries := w.Queries13()
	if extension {
		queries = w.Queries18()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := warehouse.RunSuite(context.Background(), w, queries)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range ms {
			if !m.Match {
				b.Fatalf("%s: plans disagree", m.Name)
			}
		}
	}
}

func BenchmarkTPCDSDateRewrite13(b *testing.B) { benchmarkSuite(b, false) }
func BenchmarkTPCDSDateRewrite18(b *testing.B) { benchmarkSuite(b, true) }

// E12 — proof generation and verification for the derived theorems.
func BenchmarkProofPartition(b *testing.B) {
	w := core.L("W")
	asm := []core.OD{
		core.NewOD(w, core.L("A", "B", "C")),
		core.NewOD(w, core.L("C", "A", "B")),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := inference.ProveTheorem(asm, func(bld *inference.Builder) int {
			f, _ := bld.Partition(bld.Assume(asm[0]), bld.Assume(asm[1]))
			return f
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProofPermutation covers Theorem 14's heavier derivation.
func BenchmarkProofPermutation(b *testing.B) {
	x := core.L("A", "B")
	y := core.L("C", "D")
	asm := []core.OD{core.NewOD(x, x.Concat(y))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := inference.ProveTheorem(asm, func(bld *inference.Builder) int {
			return bld.PermutationFD(bld.Assume(asm[0]), core.L("B", "A"), core.L("D", "C"))
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// E13 — completeness constructions: canonical vs enumeration tables.
func BenchmarkArmstrongCanonical(b *testing.B) {
	m := mustODs(b, "[A] -> [B]; [B] -> [C]")
	universe := core.L("A", "B", "C", "D")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := armstrong.NewBuilder(0).CanonicalTable(m, universe); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArmstrongEnumeration(b *testing.B) {
	m := mustODs(b, "[A] -> [B]; [B] -> [C]")
	universe := core.L("A", "B", "C", "D")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := armstrong.EnumerationTable(m, universe); err != nil {
			b.Fatal(err)
		}
	}
}

// E14 — prover scaling in the number of mentioned attributes.
func BenchmarkProverImplication(b *testing.B) {
	for _, n := range []int{4, 6, 8, 10} {
		b.Run(fmt.Sprintf("attrs=%d", n), func(b *testing.B) {
			attr := func(i int) core.Attribute { return core.Attribute(fmt.Sprintf("A%d", i)) }
			var m []core.OD
			for i := 0; i+1 < n; i++ {
				m = append(m, core.NewOD(core.List{attr(i)}, core.List{attr(i + 1)}))
			}
			refuted := core.NewOD(core.List{attr(n - 1)}, core.List{attr(0)})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := prover.New(m) // fresh prover: no cache effects
				ok, err := p.Implies(refuted)
				if err != nil || ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// E15 — discovery from data.
func BenchmarkDiscover(b *testing.B) {
	cal, err := datetime.Calendar(2000, 366)
	if err != nil {
		b.Fatal(err)
	}
	sub, err := cal.Project(core.L("date", "year", "quarter", "month"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := discover.Discover(sub, discover.Options{MaxLHS: 1, MaxRHS: 2})
		if err != nil || len(res.ODs) == 0 {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// E18 — FD-closure proof synthesis (constructive Theorem 16).
func BenchmarkFDImplicationProof(b *testing.B) {
	asm := []core.OD{
		core.NewOD(core.L("A"), core.L("A", "B")),
		core.NewOD(core.L("B"), core.L("B", "C")),
		core.NewOD(core.L("C"), core.L("C", "D")),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := inference.ProveTheorem(asm, func(bld *inference.Builder) int {
			steps := make([]int, len(asm))
			for k, od := range asm {
				steps[k] = bld.Assume(od)
			}
			return bld.FDImplication(steps, core.L("A"), core.L("D"))
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: FD-only ReduceOrder vs the OD-augmented ReduceOrder⁺.
func BenchmarkReduceOrderFDOnly(b *testing.B) {
	c := rewrite.NewConstraints(nil, mustODs(b, "[month] -> [quarter]; [day] -> [x]"))
	order := core.L("year", "quarter", "month", "x", "day")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rewrite.ReduceOrderFD(context.Background(), order, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReduceOrderPlus(b *testing.B) {
	c := rewrite.NewConstraints(nil, mustODs(b, "[month] -> [quarter]; [day] -> [x]"))
	order := core.L("year", "quarter", "month", "x", "day")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rewrite.ReduceOrder(order, c); err != nil {
			b.Fatal(err)
		}
	}
}
