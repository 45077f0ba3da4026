package warehouse

import (
	"context"
	"fmt"
	"strings"
	"time"

	"odlib/internal/engine"
	"odlib/internal/plan"
)

// Measurement records one query's baseline-versus-rewritten comparison.
type Measurement struct {
	Name           string
	Extension      bool
	BaselineStats  engine.Stats
	RewrittenStats engine.Stats
	BaselineTime   time.Duration
	RewrittenTime  time.Duration
	Rows           int
	Match          bool // both plans returned identical rows
	Rewrites       []string
}

// CostGain is the relative improvement of the engine cost model, in percent.
func (m Measurement) CostGain() float64 {
	base := float64(m.BaselineStats.Cost())
	if base == 0 {
		return 0
	}
	return 100 * (1 - float64(m.RewrittenStats.Cost())/base)
}

// TimeGain is the relative wall-clock improvement, in percent.
func (m Measurement) TimeGain() float64 {
	if m.BaselineTime == 0 {
		return 0
	}
	return 100 * (1 - float64(m.RewrittenTime)/float64(m.BaselineTime))
}

// RunSuite plans and executes every query both ways — the oblivious join
// plan and the OD-licensed rewrite — verifies that the answers agree, and
// returns the measurements.
func RunSuite(ctx context.Context, w *Warehouse, queries []BenchQuery) ([]Measurement, error) {
	planner := plan.NewPlanner(Constraints())
	out := make([]Measurement, 0, len(queries))
	for _, bq := range queries {
		m := Measurement{Name: bq.Name, Extension: bq.Extension}

		t0 := time.Now()
		basePlan, err := planner.PlanDateRangeBaseline(bq.Q, &m.BaselineStats)
		if err != nil {
			return nil, fmt.Errorf("warehouse: %s baseline: %w", bq.Name, err)
		}
		baseRows, err := basePlan.Execute(&m.BaselineStats)
		if err != nil {
			return nil, fmt.Errorf("warehouse: %s baseline: %w", bq.Name, err)
		}
		m.BaselineTime = time.Since(t0)

		t1 := time.Now()
		rwPlan, err := planner.PlanDateRange(ctx, bq.Q, &m.RewrittenStats)
		if err != nil {
			return nil, fmt.Errorf("warehouse: %s rewrite: %w", bq.Name, err)
		}
		rwRows, err := rwPlan.Execute(&m.RewrittenStats)
		if err != nil {
			return nil, fmt.Errorf("warehouse: %s rewrite: %w", bq.Name, err)
		}
		m.RewrittenTime = time.Since(t1)
		m.Rewrites = rwPlan.Rewrites

		m.Rows = len(rwRows)
		m.Match = sameRows(baseRows, rwRows)
		out = append(out, m)
	}
	return out, nil
}

func sameRows(a, b []engine.Row) bool {
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

// FormatTable renders measurements in the shape of the paper's reported
// table: per-query baseline and rewritten work plus the gain, with the
// average on the last line.
func FormatTable(ms []Measurement) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %12s %12s %8s %10s %10s %7s %6s\n",
		"query", "base cost", "rewr cost", "gain%", "base ms", "rewr ms", "tgain%", "match")
	var sumCost, sumTime float64
	for _, m := range ms {
		fmt.Fprintf(&b, "%-26s %12d %12d %8.1f %10.3f %10.3f %7.1f %6v\n",
			m.Name, m.BaselineStats.Cost(), m.RewrittenStats.Cost(), m.CostGain(),
			float64(m.BaselineTime.Microseconds())/1000,
			float64(m.RewrittenTime.Microseconds())/1000,
			m.TimeGain(), m.Match)
		sumCost += m.CostGain()
		sumTime += m.TimeGain()
	}
	n := float64(len(ms))
	if n > 0 {
		fmt.Fprintf(&b, "%-26s %12s %12s %8.1f %10s %10s %7.1f\n",
			"average", "", "", sumCost/n, "", "", sumTime/n)
	}
	return b.String()
}
