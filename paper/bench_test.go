package paper

// One benchmark per experiment of the paper reproduced on the engine and
// planner: the figures (E1–E7), Examples 1 and 5 (E8, E9), the TPC-DS-style
// suites (E10, E11) and discovery on the calendar (E15). E8–E11 b.Fatal when
// a rewritten plan and its baseline disagree or the taxes plan sorts.
// Run with: go test -bench=. -benchmem ./paper/

import (
	"context"
	"testing"

	"odlib/internal/armstrong"
	"odlib/internal/core"
	"odlib/internal/discover"
	"odlib/internal/prover"
	"odlib/internal/rewrite"
	"odlib/internal/warehouse"
	"odlib/paper/datetime"
	"odlib/paper/engine"
	"odlib/paper/monotone"
	"odlib/paper/plan"
	"odlib/paper/tpcds"
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
	s, err := tpcds.Load(w)
	if err != nil {
		b.Fatal(err)
	}
	queries := s.Queries13()
	if extension {
		queries = s.Queries18()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := tpcds.RunSuite(context.Background(), queries)
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
		res, err := discover.Pipeline(context.Background(), sub, discover.PipelineOptions{
			Options: discover.Options{MaxLHS: 1, MaxRHS: 2},
		})
		if err != nil || len(res.ODs) == 0 {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}
