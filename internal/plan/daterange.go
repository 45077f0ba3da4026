package plan

import (
	"context"
	"fmt"

	"odlib/internal/core"
	"odlib/internal/engine"
	"odlib/internal/rewrite"
)

// DateRangeQuery is the star-schema query shape of the paper's Section 2.3
// and [18]: aggregate the fact table over a natural-date range predicate
// that lives on the date dimension, while the fact table records dates only
// through the dimension's surrogate key.
//
//	SELECT <group>, <aggs> FROM fact, dim
//	WHERE fact.FK = dim.PK AND dim.Natural BETWEEN Lo AND Hi
//	GROUP BY <group> ORDER BY <group>
//
// Group attributes must come from the fact table, matching the benchmark
// queries the prototype rewrote.
type DateRangeQuery struct {
	Fact *engine.Table
	Dim  *engine.Table

	FactFK     core.Attribute // surrogate key column in the fact table
	DimPK      core.Attribute // surrogate key column in the dimension
	DimNatural core.Attribute // natural date column in the dimension
	Lo, Hi     core.Value     // inclusive natural-date bounds

	GroupBy core.List
	Aggs    []engine.Agg
	// OrderBy optionally orders the aggregated output; attributes must come
	// from GroupBy. In the rewritten plan an order covered by the fact
	// table's surrogate-key index comes for free — the "combined" rewrite
	// the paper describes for Example 1 plus the [18] technique.
	OrderBy core.List
}

// PlanDateRangeBaseline builds the oblivious plan: filter the dimension on
// the natural range, hash-join the fact table against it on the surrogate
// key (every fact partition must be visited, as the paper notes), then
// aggregate.
func (p *Planner) PlanDateRangeBaseline(q DateRangeQuery, stats *engine.Stats) (*Plan, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	plan := &Plan{}
	dimSide := engine.NewFilter(engine.NewTableScan(q.Dim, stats),
		engine.Cond{Attr: q.DimNatural, Op: engine.Ge, Val: q.Lo},
		engine.Cond{Attr: q.DimNatural, Op: engine.Le, Val: q.Hi},
	)
	join := engine.NewHashJoin(
		engine.NewTableScan(q.Fact, stats), dimSide,
		core.List{q.FactFK}, core.List{q.DimPK}, stats)
	plan.Steps = append(plan.Steps,
		fmt.Sprintf("scan %s, filter %s in [%s, %s]", q.Dim.Name, q.DimNatural, q.Lo, q.Hi),
		fmt.Sprintf("hash join %s.%s = %s.%s (full fact scan)", q.Fact.Name, q.FactFK, q.Dim.Name, q.DimPK),
	)
	var op engine.Operator = join
	op = engine.NewHashAggregate(op, q.GroupBy, q.Aggs, stats)
	plan.Steps = append(plan.Steps, fmt.Sprintf("hash aggregate on %v", q.GroupBy))
	if len(q.OrderBy) > 0 {
		op = engine.NewSort(op, q.OrderBy, stats)
		plan.Steps = append(plan.Steps, fmt.Sprintf("sort on %v", q.OrderBy))
	}
	plan.Root = op
	return plan, nil
}

// PlanDateRange builds the rewritten plan of [18] when the constraints
// license it: the OD [DimPK] ↔ [DimNatural] must be declared or implied.
// The plan probes the dimension's natural-date index twice to translate the
// natural range into a surrogate-key range, then range-scans the fact
// table's surrogate-key index with no join at all. When the equivalence is
// not known, it falls back to the baseline plan and says so.
func (p *Planner) PlanDateRange(ctx context.Context, q DateRangeQuery, stats *engine.Stats) (*Plan, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	licensed, err := rewrite.Equivalent(core.List{q.DimPK}, core.List{q.DimNatural}, p.C)
	if err != nil {
		return nil, err
	}
	if !licensed {
		plan, err := p.PlanDateRangeBaseline(q, stats)
		if err != nil {
			return nil, err
		}
		plan.Steps = append([]string{
			fmt.Sprintf("no OD [%s] <-> [%s] declared; falling back to join plan", q.DimPK, q.DimNatural)},
			plan.Steps...)
		return plan, nil
	}
	dimIx := q.Dim.IndexOn(core.List{q.DimNatural})
	factIx := q.Fact.IndexOn(core.List{q.FactFK})
	if dimIx == nil || factIx == nil {
		return nil, fmt.Errorf("plan: date rewrite needs indexes on %s.%s and %s.%s",
			q.Dim.Name, q.DimNatural, q.Fact.Name, q.FactFK)
	}

	plan := &Plan{Rewrites: []string{"date-surrogate-range"}}
	// Two probes into the dimension translate the natural bounds into
	// surrogate-key bounds (valid because the OD makes the surrogate order
	// the mirror of the natural order).
	ids := dimIx.LookupRange([]core.Value{q.Lo}, []core.Value{q.Hi}, stats)
	plan.Steps = append(plan.Steps,
		fmt.Sprintf("probe %s index twice: %s in [%s, %s] covers %d dimension rows",
			q.Dim.Name, q.DimNatural, q.Lo, q.Hi, len(ids)))
	var op engine.Operator
	if len(ids) == 0 {
		op = engine.NewLimit(engine.NewTableScan(q.Fact, nil), 0)
		plan.Steps = append(plan.Steps, "empty date range: empty fact scan")
	} else {
		pkCol, err := q.Dim.Col(q.DimPK)
		if err != nil {
			return nil, err
		}
		loSK := q.Dim.Row(ids[0])[pkCol]
		hiSK := q.Dim.Row(ids[0])[pkCol]
		for _, id := range ids[1:] {
			v := q.Dim.Row(id)[pkCol]
			if v.Compare(loSK) < 0 {
				loSK = v
			}
			if v.Compare(hiSK) > 0 {
				hiSK = v
			}
		}
		op = engine.NewIndexRangeScan(factIx, []core.Value{loSK}, []core.Value{hiSK}, stats)
		plan.Steps = append(plan.Steps,
			fmt.Sprintf("range scan %s index on %s in [%s, %s] — join eliminated, partitions pruned",
				q.Fact.Name, q.FactFK, loSK, hiSK))
	}

	// Combined rewrite: the index range scan delivers rows in surrogate-key
	// order; when that order partitions the group contiguously a stream
	// aggregate applies, and when it covers the ORDER BY the sort vanishes
	// too (the paper's Example 1 + [18] combination).
	streamed := false
	ordered := false
	if len(q.GroupBy) > 0 && len(ids) > 0 {
		okG, err := rewrite.GroupBySatisfiedBy(ctx, factIx.Key, q.GroupBy, p.C)
		if err != nil {
			return nil, err
		}
		if okG {
			op = engine.NewStreamAggregate(op, q.GroupBy, q.Aggs, stats)
			plan.Steps = append(plan.Steps, fmt.Sprintf("stream aggregate on %v (index order)", q.GroupBy))
			plan.Rewrites = append(plan.Rewrites, "stream-aggregate")
			streamed = true
			okO, err := rewrite.Covers(factIx.Key, q.OrderBy, p.C)
			if err != nil {
				return nil, err
			}
			ordered = okO
		}
	}
	if !streamed {
		op = engine.NewHashAggregate(op, q.GroupBy, q.Aggs, stats)
		plan.Steps = append(plan.Steps, fmt.Sprintf("hash aggregate on %v", q.GroupBy))
	}
	if len(q.OrderBy) > 0 {
		if ordered {
			plan.Steps = append(plan.Steps,
				fmt.Sprintf("ORDER BY %v satisfied by index order — sort eliminated", q.OrderBy))
			plan.Rewrites = append(plan.Rewrites, "order-by-eliminated")
		} else {
			op = engine.NewSort(op, q.OrderBy, stats)
			plan.Steps = append(plan.Steps, fmt.Sprintf("sort on %v", q.OrderBy))
		}
	}
	plan.Root = op
	return plan, nil
}

func (q *DateRangeQuery) validate() error {
	if q.Fact == nil || q.Dim == nil {
		return fmt.Errorf("plan: date-range query needs fact and dimension tables")
	}
	if _, err := q.Fact.Col(q.FactFK); err != nil {
		return err
	}
	if _, err := q.Dim.Col(q.DimPK); err != nil {
		return err
	}
	if _, err := q.Dim.Col(q.DimNatural); err != nil {
		return err
	}
	for _, a := range q.GroupBy {
		if _, err := q.Fact.Col(a); err != nil {
			return fmt.Errorf("plan: group attribute %s must come from the fact table: %w", a, err)
		}
	}
	return nil
}
