// Discovery: mine order dependencies from real calendar data — the
// schema-design direction of the paper's Section 6. The minimal set the
// miner returns regenerates (a fragment of) the Figure 2 hierarchy without
// being told anything about dates.
package main

import (
	"context"
	"fmt"
	"log"

	"odlib/internal/core"
	"odlib/internal/discover"
	"odlib/internal/prover"
	"odlib/paper/datetime"
)

func main() {
	cal, err := datetime.Calendar(2000, 730)
	if err != nil {
		log.Fatal(err)
	}
	sub, err := cal.Project(core.L("date", "year", "quarter", "month", "week_seq"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mining %d days over %v\n\n", sub.Len(), sub.Attrs())

	res, err := discover.Pipeline(context.Background(), sub, discover.PipelineOptions{
		Options: discover.Options{MaxLHS: 1, MaxRHS: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("candidates enumerated: %d, validated against data: %d\n", res.Stats.Candidates, res.Stats.DataChecks)
	fmt.Printf("minimal OD set (%d dependencies):\n", len(res.ODs))
	for _, od := range res.ODs {
		fmt.Printf("  %s\n", od)
	}

	pairs, err := discover.CompatiblePairs(sub)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\norder-compatible attribute pairs: %d\n", len(pairs))
	for _, p := range pairs {
		fmt.Printf("  [%s] ~ [%s]\n", p[0], p[1])
	}

	// The mined set regenerates the declared hierarchy knowledge.
	p := prover.New(res.ODs)
	for _, want := range []string{
		"[date] -> [year, quarter, month]",
		"[month] -> [quarter]",
		"[date] -> [week_seq]",
	} {
		ods, err := core.ParseStatements(want)
		if err != nil {
			log.Fatal(err)
		}
		ok, err := p.ImpliesAll(ods)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mined set implies %-35s %v\n", want, ok)
	}
}
