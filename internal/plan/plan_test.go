package plan

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"odlib/internal/core"
	"odlib/internal/engine"
	"odlib/internal/fd"
	"odlib/internal/rewrite"
)

func L(attrs ...string) core.List { return core.L(attrs...) }

func mustODs(t *testing.T, text string) []core.OD {
	t.Helper()
	ods, err := core.ParseStatements(text)
	if err != nil {
		t.Fatal(err)
	}
	return ods
}

// salesTable builds the Example 1 style table: one row per (year, month)
// with quarter derived from month, plus an amount, and a tree index on
// (year, month) — the index that cannot serve ORDER BY year, quarter, month
// without OD reasoning.
func salesTable(t *testing.T, years int) *engine.Table {
	t.Helper()
	tbl, err := engine.NewTable("sales", L("year", "quarter", "month", "amount"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for y := 0; y < years; y++ {
		for m := 1; m <= 12; m++ {
			for k := 0; k < 3; k++ {
				q := (m-1)/3 + 1
				if err := tbl.Insert(
					core.Int(int64(2000+y)), core.Int(int64(q)), core.Int(int64(m)),
					core.Int(int64(rng.Intn(1000)))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := tbl.BuildIndex("ym", L("year", "month")); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func rowsEqual(a, b []engine.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestExample1Plan reproduces the paper's Example 1 end to end: with the OD
// [month] ↦ [quarter], the group-by and order-by on (year, quarter, month)
// are served by the (year, month) index with no sort operator; without it,
// the plan sorts.
func TestExample1Plan(t *testing.T) {
	tbl := salesTable(t, 3)
	q := Query{
		Table:   tbl,
		GroupBy: L("year", "quarter", "month"),
		Aggs:    []engine.Agg{{Kind: engine.Sum, Attr: "amount", As: "sum_amount"}},
		OrderBy: L("year", "quarter", "month"),
	}

	withOD := NewPlanner(rewrite.NewConstraints(nil, mustODs(t, "[month] -> [quarter]")))
	var sOD engine.Stats
	planOD, err := withOD.PlanQuery(context.Background(), q, &sOD)
	if err != nil {
		t.Fatal(err)
	}
	rowsOD, err := planOD.Execute(&sOD)
	if err != nil {
		t.Fatal(err)
	}

	baseline := NewPlanner(nil)
	var sBase engine.Stats
	planBase, err := baseline.PlanQuery(context.Background(), q, &sBase)
	if err != nil {
		t.Fatal(err)
	}
	rowsBase, err := planBase.Execute(&sBase)
	if err != nil {
		t.Fatal(err)
	}

	if !rowsEqual(rowsOD, rowsBase) {
		t.Fatalf("plans disagree:\nOD   %v\nbase %v", rowsOD, rowsBase)
	}
	if len(rowsOD) != 3*12 {
		t.Fatalf("expected 36 groups, got %d", len(rowsOD))
	}
	if sOD.Sorts != 0 {
		t.Errorf("rewritten plan must not sort:\n%s", planOD.Explain())
	}
	if sBase.Sorts == 0 {
		t.Errorf("baseline plan should sort:\n%s", planBase.Explain())
	}
	if sOD.Cost() >= sBase.Cost() {
		t.Errorf("rewritten cost %d should beat baseline %d", sOD.Cost(), sBase.Cost())
	}
	if !strings.Contains(planOD.Explain(), "index scan") {
		t.Errorf("expected index scan in plan:\n%s", planOD.Explain())
	}
	// Output is genuinely ordered by the original list.
	for i := 1; i < len(rowsOD); i++ {
		for _, c := range []int{0, 1, 2} {
			cmp := rowsOD[i-1][c].Compare(rowsOD[i][c])
			if cmp < 0 {
				break
			}
			if cmp > 0 {
				t.Fatalf("output not ordered at row %d", i)
			}
		}
	}
}

// TestExample5Plan is the taxes example: ODs income ↦ bracket and
// income ↦ payable let the income index serve ORDER BY bracket, payable.
func TestExample5Plan(t *testing.T) {
	tbl, err := engine.NewTable("taxes", L("income", "bracket", "payable"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		inc := int64(rng.Intn(200000))
		bracket := int64(1)
		switch {
		case inc >= 100000:
			bracket = 4
		case inc >= 50000:
			bracket = 3
		case inc >= 20000:
			bracket = 2
		}
		payable := inc * bracket / 10
		if err := tbl.Insert(core.Int(inc), core.Int(bracket), core.Int(payable)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.BuildIndex("income", L("income")); err != nil {
		t.Fatal(err)
	}
	q := Query{Table: tbl, OrderBy: L("bracket", "payable")}

	withOD := NewPlanner(rewrite.NewConstraints(nil,
		mustODs(t, "[income] -> [bracket]; [income] -> [payable]")))
	var sOD engine.Stats
	planOD, err := withOD.PlanQuery(context.Background(), q, &sOD)
	if err != nil {
		t.Fatal(err)
	}
	rowsOD, err := planOD.Execute(&sOD)
	if err != nil {
		t.Fatal(err)
	}
	if sOD.Sorts != 0 {
		t.Errorf("income index should cover ORDER BY bracket, payable (Union theorem):\n%s", planOD.Explain())
	}

	baseline := NewPlanner(nil)
	var sBase engine.Stats
	planBase, err := baseline.PlanQuery(context.Background(), q, &sBase)
	if err != nil {
		t.Fatal(err)
	}
	rowsBase, err := planBase.Execute(&sBase)
	if err != nil {
		t.Fatal(err)
	}
	if sBase.Sorts == 0 {
		t.Error("baseline should sort")
	}
	// Both orders must satisfy ORDER BY bracket, payable; rows may differ in
	// tie order, so compare the projections.
	for i := 1; i < len(rowsOD); i++ {
		b0, _ := tbl.Col("bracket")
		p0, _ := tbl.Col("payable")
		prev, cur := rowsOD[i-1], rowsOD[i]
		if prev[b0].Compare(cur[b0]) > 0 ||
			(prev[b0].Equal(cur[b0]) && prev[p0].Compare(cur[p0]) > 0) {
			t.Fatalf("OD plan output misordered at %d", i)
		}
	}
	if len(rowsOD) != len(rowsBase) {
		t.Fatalf("row counts differ: %d vs %d", len(rowsOD), len(rowsBase))
	}
}

func TestPlanQueryFilterAndProject(t *testing.T) {
	tbl := salesTable(t, 1)
	p := NewPlanner(nil)
	var s engine.Stats
	plan, err := p.PlanQuery(context.Background(), Query{
		Table:  tbl,
		Filter: []engine.Cond{{Attr: "month", Op: engine.Le, Val: core.Int(2)}},
		Select: L("month", "amount"),
	}, &s)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := plan.Execute(&s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("filtered rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if len(r) != 2 || r[0].Int > 2 {
			t.Fatalf("bad row %v", r)
		}
	}
	if _, err := p.PlanQuery(context.Background(), Query{}, nil); err == nil {
		t.Error("query without table must fail")
	}
}

func dateWarehouse(t *testing.T, days, facts int) (*engine.Table, *engine.Table) {
	t.Helper()
	dim, err := engine.NewTable("date_dim", L("d_date_sk", "d_date"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < days; i++ {
		// Surrogate keys ascend with dates (the declared OD).
		if err := dim.Insert(core.Int(int64(1000+i)), core.Int(int64(20200000+i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dim.BuildIndex("d_date", L("d_date")); err != nil {
		t.Fatal(err)
	}
	fact, err := engine.NewTable("sales", L("ss_sold_date_sk", "ss_item", "ss_qty"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < facts; i++ {
		if err := fact.Insert(
			core.Int(int64(1000+rng.Intn(days))),
			core.Int(int64(rng.Intn(50))),
			core.Int(int64(1+rng.Intn(10)))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fact.BuildIndex("sk", L("ss_sold_date_sk")); err != nil {
		t.Fatal(err)
	}
	return fact, dim
}

// TestDateRangeRewrite reproduces the [18] rewrite: identical results, no
// join, far less work.
func TestDateRangeRewrite(t *testing.T) {
	fact, dim := dateWarehouse(t, 365, 3000)
	q := DateRangeQuery{
		Fact: fact, Dim: dim,
		FactFK: "ss_sold_date_sk", DimPK: "d_date_sk", DimNatural: "d_date",
		Lo: core.Int(20200060), Hi: core.Int(20200090),
		GroupBy: L("ss_item"),
		Aggs:    []engine.Agg{{Kind: engine.Sum, Attr: "ss_qty", As: "qty"}},
	}
	licensed := NewPlanner(rewrite.NewConstraints(nil,
		mustODs(t, "[d_date_sk] <-> [d_date]")))

	var sRw engine.Stats
	planRw, err := licensed.PlanDateRange(context.Background(), q, &sRw)
	if err != nil {
		t.Fatal(err)
	}
	rowsRw, err := planRw.Execute(&sRw)
	if err != nil {
		t.Fatal(err)
	}
	var sBase engine.Stats
	planBase, err := licensed.PlanDateRangeBaseline(q, &sBase)
	if err != nil {
		t.Fatal(err)
	}
	rowsBase, err := planBase.Execute(&sBase)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(rowsRw, rowsBase) {
		t.Fatalf("rewrite changed the answer:\nrw   %v\nbase %v", rowsRw, rowsBase)
	}
	if len(planRw.Rewrites) == 0 || planRw.Rewrites[0] != "date-surrogate-range" {
		t.Errorf("rewrite should have fired: %v", planRw.Rewrites)
	}
	if sRw.RowsScanned >= sBase.RowsScanned {
		t.Errorf("rewrite should scan fewer rows: %d vs %d", sRw.RowsScanned, sBase.RowsScanned)
	}
	if sRw.Cost() >= sBase.Cost() {
		t.Errorf("rewrite cost %d should beat baseline %d", sRw.Cost(), sBase.Cost())
	}

	// An unlicensed planner must fall back to the join plan.
	unlicensed := NewPlanner(nil)
	var sNo engine.Stats
	planNo, err := unlicensed.PlanDateRange(context.Background(), q, &sNo)
	if err != nil {
		t.Fatal(err)
	}
	if len(planNo.Rewrites) != 0 {
		t.Error("unlicensed planner must not rewrite")
	}
	rowsNo, err := planNo.Execute(&sNo)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(rowsNo, rowsBase) {
		t.Error("fallback plan answer differs")
	}
	if !strings.Contains(planNo.Explain(), "falling back") {
		t.Errorf("fallback should be explained:\n%s", planNo.Explain())
	}

	// Empty range.
	q.Lo, q.Hi = core.Int(20300000), core.Int(20300010)
	var sE engine.Stats
	planE, err := licensed.PlanDateRange(context.Background(), q, &sE)
	if err != nil {
		t.Fatal(err)
	}
	rowsE, err := planE.Execute(&sE)
	if err != nil || len(rowsE) != 0 {
		t.Errorf("empty range should produce no rows: %v %v", rowsE, err)
	}
}

// dateOracle affirms [d_date_sk] <-> [d_date] and nothing else, counting what
// it is asked: the shape of a remote catalog behind rewrite.UseOracle.
type dateOracle struct{ asked int }

func (o *dateOracle) OrdersBy(_ context.Context, x, y core.List) (bool, error) {
	o.asked++
	return x.Equal(L("d_date_sk")) && y.Equal(L("d_date")) ||
		x.Equal(L("d_date")) && y.Equal(L("d_date_sk")), nil
}

// TestDateRangeRewriteAsksTheOracle: the planner's licence question goes
// through the Constraints' Oracle like every other rewrite question. The
// Constraints carry no local ODs at all, so only the oracle can license the
// rewrite — a planner that built its own prover over C.ODs would fall back
// to the join plan without asking.
func TestDateRangeRewriteAsksTheOracle(t *testing.T) {
	fact, dim := dateWarehouse(t, 60, 300)
	q := DateRangeQuery{
		Fact: fact, Dim: dim,
		FactFK: "ss_sold_date_sk", DimPK: "d_date_sk", DimNatural: "d_date",
		Lo: core.Int(20200010), Hi: core.Int(20200020),
		GroupBy: L("ss_item"),
		Aggs:    []engine.Agg{{Kind: engine.Sum, Attr: "ss_qty", As: "qty"}},
	}
	o := &dateOracle{}
	p := NewPlanner(rewrite.NewConstraints(nil, nil).UseOracle(o))
	plan, err := p.PlanDateRange(context.Background(), q, &engine.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Rewrites) == 0 || plan.Rewrites[0] != "date-surrogate-range" {
		t.Errorf("oracle-licensed rewrite did not fire:\n%s", plan.Explain())
	}
	if o.asked == 0 {
		t.Error("the planner never asked the installed oracle")
	}
}

func TestDateRangeValidation(t *testing.T) {
	fact, dim := dateWarehouse(t, 10, 10)
	p := NewPlanner(nil)
	if _, err := p.PlanDateRange(context.Background(), DateRangeQuery{}, nil); err == nil {
		t.Error("missing tables must fail")
	}
	q := DateRangeQuery{
		Fact: fact, Dim: dim,
		FactFK: "nope", DimPK: "d_date_sk", DimNatural: "d_date",
	}
	if _, err := p.PlanDateRange(context.Background(), q, nil); err == nil {
		t.Error("missing fact FK must fail")
	}
	q.FactFK = "ss_sold_date_sk"
	q.GroupBy = L("d_date")
	if _, err := p.PlanDateRangeBaseline(q, nil); err == nil {
		t.Error("dimension group attribute must fail")
	}
}

// TestPlanGroupOnlyUsesStreamWithIndex: group-by without order-by still uses
// the index when it partitions compatibly.
func TestPlanGroupOnlyUsesStreamWithIndex(t *testing.T) {
	tbl := salesTable(t, 2)
	c := rewrite.NewConstraints([]fd.FD{fd.New(L("month"), L("quarter"))}, nil)
	p := NewPlanner(c)
	var s engine.Stats
	plan, err := p.PlanQuery(context.Background(), Query{
		Table:   tbl,
		GroupBy: L("year", "quarter", "month"),
		Aggs:    []engine.Agg{{Kind: engine.Count, As: "n"}},
	}, &s)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := plan.Execute(&s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 24 {
		t.Fatalf("groups = %d, want 24", len(rows))
	}
	if s.Sorts != 0 {
		t.Errorf("index should provide grouping without sort:\n%s", plan.Explain())
	}
	if !strings.Contains(plan.Explain(), "stream aggregate") {
		t.Errorf("expected stream aggregate:\n%s", plan.Explain())
	}
}
