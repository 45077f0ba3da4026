// Taxes: the paper's Example 5. Tax brackets and tax payable are monotone
// in income, so the derived ODs [income] ↦ [bracket] and
// [income] ↦ [payable] let an index on income serve
// ORDER BY bracket, payable with no sort operator.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"odlib/internal/core"
	"odlib/internal/rewrite"
	"odlib/paper/engine"
	"odlib/paper/monotone"
	"odlib/paper/plan"
)

func main() {
	// The generated columns of the Taxes table, as algebraic expressions:
	// bracket is a CASE over income, payable a scaled income.
	income := monotone.Col("income")
	generated := map[core.Attribute]monotone.Expr{
		"bracket": monotone.Step{
			E:          income,
			Thresholds: []int64{20_000, 50_000, 100_000},
			Outputs:    []int64{1, 2, 3},
			Last:       4,
		},
		"payable": monotone.Div{E: monotone.Scale{E: income, K: 25}, K: 100},
	}

	// Monotonicity analysis derives the ODs automatically ([12]-style).
	ods := monotone.DeriveODs(generated)
	fmt.Printf("derived order dependencies: %s\n", core.ODsString(ods))

	// Build the Taxes table with the generated columns materialized.
	tbl, err := engine.NewTable("taxes", core.L("income", "bracket", "payable"))
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10_000; i++ {
		inc := core.Int(int64(rng.Intn(250_000)))
		row := map[core.Attribute]core.Value{"income": inc}
		bracket, err := generated["bracket"].Eval(row)
		if err != nil {
			log.Fatal(err)
		}
		payable, err := generated["payable"].Eval(row)
		if err != nil {
			log.Fatal(err)
		}
		if err := tbl.Insert(inc, bracket, payable); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := tbl.BuildIndex("income_idx", core.L("income")); err != nil {
		log.Fatal(err)
	}

	// The query of Example 5: ORDER BY bracket, payable.
	query := plan.Query{Table: tbl, OrderBy: core.L("bracket", "payable")}

	for _, mode := range []struct {
		name string
		c    *rewrite.Constraints
	}{
		{"without ODs", rewrite.NewConstraints(nil, nil)},
		{"with derived ODs", rewrite.NewConstraints(nil, ods)},
	} {
		var stats engine.Stats
		p := plan.NewPlanner(mode.c)
		pl, err := p.PlanQuery(context.Background(), query, &stats)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := pl.Execute(&stats)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s: %d rows, %d sorts, cost %d\n", mode.name, len(rows), stats.Sorts, stats.Cost())
		fmt.Println(pl.Explain())
	}
	fmt.Println("\nthe income index covers ORDER BY bracket, payable because")
	fmt.Println("[income] -> [bracket, payable] follows by the Union theorem (Theorem 2).")
}
