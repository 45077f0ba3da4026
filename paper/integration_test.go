package paper

// Integration tests over the paper's engine and planner: constraints
// declared on engine tables and validated against their rows drive the
// planner's rewrites.

import (
	"context"
	"testing"

	"odlib/internal/core"
	"odlib/internal/warehouse"
	"odlib/paper/engine"
	"odlib/paper/plan"
	"odlib/paper/tpcds"
)

// TestDeclaredConstraintsDriveThePlanner is the prototype's full loop: ODs
// declared as check constraints on the table, validated against the data,
// then used by the planner to eliminate the sort.
func TestDeclaredConstraintsDriveThePlanner(t *testing.T) {
	tbl, err := engine.NewTable("sales", core.L("year", "quarter", "month", "amount"))
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 2; y++ {
		for m := 1; m <= 12; m++ {
			if err := tbl.Insert(
				core.Int(int64(2000+y)), core.Int(int64((m-1)/3+1)),
				core.Int(int64(m)), core.Int(int64(m*y+7))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := tbl.BuildIndex("ym", core.L("year", "month")); err != nil {
		t.Fatal(err)
	}
	// Declare and validate the OD check constraint.
	od, err := core.ParseOD("[month] -> [quarter]")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.DeclareOD(od); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CheckConstraints(); err != nil {
		t.Fatal(err)
	}
	// The planner picks the constraint up from the table itself.
	p := plan.NewPlanner(plan.ConstraintsFromTables(tbl))
	var stats engine.Stats
	pl, err := p.PlanQuery(context.Background(), plan.Query{
		Table:   tbl,
		OrderBy: core.L("year", "quarter", "month"),
	}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pl.Execute(&stats)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sorts != 0 {
		t.Errorf("declared constraint should have eliminated the sort:\n%s", pl.Explain())
	}
	if len(rows) != tbl.Len() {
		t.Errorf("row count = %d", len(rows))
	}
	// A constraint the data violates is rejected before it can mislead the
	// planner.
	if err := tbl.DeclareOD(core.NewOD(core.L("quarter"), core.L("month"))); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CheckConstraints(); err == nil {
		t.Error("violated declaration must fail the check")
	}
}

// TestWarehouseConstraintDeclarationLoop: the warehouse's declared ODs
// validate as engine check constraints on the dimension table.
func TestWarehouseConstraintDeclarationLoop(t *testing.T) {
	w, err := warehouse.Generate(warehouse.Config{
		StartYear: 2001, Days: 200, FactRows: 100, Items: 5, Stores: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := tpcds.Load(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, od := range warehouse.DeclaredODs() {
		if err := s.DateDim.DeclareOD(od); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DateDim.CheckConstraints(); err != nil {
		t.Fatalf("warehouse constraints must validate: %v", err)
	}
	c := plan.ConstraintsFromTables(s.DateDim)
	ok, err := c.Prover().Equivalent(core.L("d_date_sk"), core.L("d_date"))
	if err != nil || !ok {
		t.Errorf("table-declared constraints should license the date rewrite: %v %v", ok, err)
	}
}
