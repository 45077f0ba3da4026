package plan

import (
	"context"
	"fmt"
	"strings"

	"odlib/internal/core"
	"odlib/internal/engine"
	"odlib/internal/rewrite"
)

// Query is a single-table select-filter-group-order query.
type Query struct {
	Table   *engine.Table
	Filter  []engine.Cond
	GroupBy core.List
	Aggs    []engine.Agg
	OrderBy core.List
	// Select restricts output attributes (optional; nil keeps all).
	Select core.List
}

// Plan is a physical operator tree plus an explanation of the choices made.
type Plan struct {
	Root     engine.Operator
	Steps    []string // one line per planning decision
	Rewrites []string // rewrite rules that fired
}

// Explain renders the planning decisions.
func (p *Plan) Explain() string { return strings.Join(p.Steps, "\n") }

// Execute drains the plan and returns its rows.
func (p *Plan) Execute(stats *engine.Stats) ([]engine.Row, error) {
	return engine.Run(p.Root, stats)
}

// Planner plans queries under a set of declared constraints. A Planner with
// empty constraints produces baseline plans: it still uses indexes for
// syntactically identical orders but cannot apply any dependency rewrite.
type Planner struct {
	C *rewrite.Constraints
}

// NewPlanner builds a planner over the given constraints (nil means none).
func NewPlanner(c *rewrite.Constraints) *Planner {
	if c == nil {
		c = rewrite.NewConstraints(nil, nil)
	}
	return &Planner{C: c}
}

// ConstraintsFromTables gathers the OD check constraints declared on the
// given tables (engine.Table.DeclareOD) into planner constraints — the
// paper's prototype flow, where declared check constraints feed the
// optimizer's rewrites.
func ConstraintsFromTables(tables ...*engine.Table) *rewrite.Constraints {
	var ods []core.OD
	for _, t := range tables {
		ods = append(ods, t.Declared()...)
	}
	return rewrite.NewConstraints(nil, ods)
}

// PlanQuery builds a physical plan for a single-table query. Planning
// minimizes sorts: ORDER BY and GROUP BY lists are reduced first, then an
// index able to serve the reduced order (and group contiguity) is sought.
func (p *Planner) PlanQuery(ctx context.Context, q Query, stats *engine.Stats) (*Plan, error) {
	if q.Table == nil {
		return nil, fmt.Errorf("plan: query has no table")
	}
	plan := &Plan{}

	orderRes, err := rewrite.ReduceOrderCtx(ctx, q.OrderBy, p.C)
	if err != nil {
		return nil, err
	}
	order := orderRes.Reduced
	if len(orderRes.Steps) > 0 {
		plan.Rewrites = append(plan.Rewrites, "reduce-order")
		plan.Steps = append(plan.Steps,
			fmt.Sprintf("reduce ORDER BY %v to %v", orderRes.Input, order))
	}
	// The output schema must keep every queried group column, so the
	// aggregate keys on the original (normalized) list; the reduced list
	// drives partition-satisfaction tests, where only the partition — not
	// the column set — matters (Section 2.2).
	group := q.GroupBy.Normalize()
	groupRes, err := rewrite.ReduceGroupBy(ctx, q.GroupBy, p.C)
	if err != nil {
		return nil, err
	}
	if len(groupRes.Steps) > 0 {
		plan.Rewrites = append(plan.Rewrites, "reduce-group")
		plan.Steps = append(plan.Steps,
			fmt.Sprintf("GROUP BY %v partitions like %v", groupRes.Input, groupRes.Reduced))
	}

	// Access path: find an index whose order covers what the query needs.
	var input engine.Operator
	var inputOrder core.List
	for _, key := range candidateIndexKeys(q.Table) {
		covers, err := rewrite.Covers(key, order, p.C)
		if err != nil {
			return nil, err
		}
		if !covers && len(order) > 0 {
			continue
		}
		if len(group) > 0 {
			okG, err := rewrite.GroupBySatisfiedBy(ctx, key, group, p.C)
			if err != nil {
				return nil, err
			}
			if !okG {
				continue
			}
		}
		ix := q.Table.IndexOn(key)
		input = engine.NewIndexScan(ix, stats)
		inputOrder = key
		plan.Steps = append(plan.Steps,
			fmt.Sprintf("index scan %s on %s%v provides the order", ix.Name, q.Table.Name, key))
		break
	}
	if input == nil {
		input = engine.NewTableScan(q.Table, stats)
		plan.Steps = append(plan.Steps, fmt.Sprintf("table scan %s", q.Table.Name))
	}

	var op engine.Operator = input
	if len(q.Filter) > 0 {
		op = engine.NewFilter(op, q.Filter...)
		plan.Steps = append(plan.Steps, fmt.Sprintf("filter %v", q.Filter))
	}

	if len(group) > 0 {
		if inputOrder != nil {
			op = engine.NewStreamAggregate(op, group, q.Aggs, stats)
			plan.Steps = append(plan.Steps, fmt.Sprintf("stream aggregate on %v", group))
		} else {
			// Sort to group order only when an explicit order is wanted too;
			// otherwise hash.
			if len(order) > 0 {
				sortList := order
				okG, err := rewrite.GroupBySatisfiedBy(ctx, sortList, group, p.C)
				if err != nil {
					return nil, err
				}
				if okG {
					op = engine.NewSort(op, sortList, stats)
					op = engine.NewStreamAggregate(op, group, q.Aggs, stats)
					plan.Steps = append(plan.Steps,
						fmt.Sprintf("sort %v then stream aggregate on %v", sortList, group))
					inputOrder = sortList
				}
			}
			if inputOrder == nil {
				op = engine.NewHashAggregate(op, group, q.Aggs, stats)
				plan.Steps = append(plan.Steps, fmt.Sprintf("hash aggregate on %v", group))
			}
		}
	}

	if len(order) > 0 {
		covered := false
		if inputOrder != nil {
			covered, err = rewrite.Covers(inputOrder, order, p.C)
			if err != nil {
				return nil, err
			}
		}
		if !covered {
			op = engine.NewSort(op, order, stats)
			plan.Steps = append(plan.Steps, fmt.Sprintf("sort on %v", order))
		} else {
			plan.Steps = append(plan.Steps, fmt.Sprintf("ORDER BY %v satisfied by input order", order))
		}
	}

	if len(q.Select) > 0 {
		op = engine.NewProject(op, q.Select)
		plan.Steps = append(plan.Steps, fmt.Sprintf("project %v", q.Select))
	}
	plan.Root = op
	return plan, nil
}

// candidateIndexKeys lists the key lists of the table's indexes in a
// deterministic order.
func candidateIndexKeys(t *engine.Table) []core.List {
	var keys []core.List
	for _, ix := range t.Indexes() {
		keys = append(keys, ix.Key)
	}
	return keys
}
