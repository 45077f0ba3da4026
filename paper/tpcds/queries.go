package tpcds

import (
	"time"

	"odlib/internal/core"
	"odlib/internal/warehouse"
	"odlib/paper/engine"
	"odlib/paper/plan"
)

// BenchQuery is a named date-range benchmark query.
type BenchQuery struct {
	Name string
	Q    plan.DateRangeQuery
}

// dateRange builds the query skeleton over the warehouse tables.
func (s *Star) dateRange(lo, hi int64, group core.List, aggs []engine.Agg) plan.DateRangeQuery {
	return plan.DateRangeQuery{
		Fact: s.Sales, Dim: s.DateDim,
		FactFK: warehouse.SSDateSK, DimPK: warehouse.DDateSK, DimNatural: warehouse.DDate,
		Lo: core.Int(lo), Hi: core.Int(hi),
		GroupBy: group, Aggs: aggs,
	}
}

// Queries13 returns the thirteen rewrite-eligible queries of the base
// experiment: fact aggregations under natural-date range predicates with
// varying windows, group keys and aggregates, mirroring the TPC-DS query
// shapes ([18] reports thirteen TPC-DS queries matching the rewrite's
// conditions).
func (s *Star) Queries13() []BenchQuery {
	y, natural := s.Config.StartYear, warehouse.NaturalDate
	sumQty := []engine.Agg{{Kind: engine.Sum, Attr: warehouse.SSQty, As: "sum_qty"}}
	sumPrice := []engine.Agg{{Kind: engine.Sum, Attr: warehouse.SSPrice, As: "sum_price"}}
	cnt := []engine.Agg{{Kind: engine.Count, As: "cnt"}}
	full := []engine.Agg{
		{Kind: engine.Sum, Attr: warehouse.SSQty, As: "sum_qty"},
		{Kind: engine.Count, As: "cnt"},
		{Kind: engine.Min, Attr: warehouse.SSPrice, As: "min_price"},
		{Kind: engine.Max, Attr: warehouse.SSPrice, As: "max_price"},
	}
	item := core.List{warehouse.SSItemSK}
	store := core.List{warehouse.SSStoreSK}
	both := core.List{warehouse.SSItemSK, warehouse.SSStoreSK}
	return []BenchQuery{
		{Name: "q01_month_item_qty", Q: s.dateRange(natural(y, time.January, 1), natural(y, time.January, 31), item, sumQty)},
		{Name: "q02_month_store_price", Q: s.dateRange(natural(y, time.February, 1), natural(y, time.February, 28), store, sumPrice)},
		{Name: "q03_quarter_item_price", Q: s.dateRange(natural(y, time.January, 1), natural(y, time.March, 31), item, sumPrice)},
		{Name: "q04_quarter_store_qty", Q: s.dateRange(natural(y, time.April, 1), natural(y, time.June, 30), store, sumQty)},
		{Name: "q05_60day_item_cnt", Q: s.dateRange(natural(y, time.May, 1), natural(y, time.June, 29), item, cnt)},
		{Name: "q06_90day_both_qty", Q: s.dateRange(natural(y, time.June, 1), natural(y, time.August, 29), both, sumQty)},
		{Name: "q07_summer_item_full", Q: s.dateRange(natural(y, time.June, 21), natural(y, time.September, 21), item, full)},
		{Name: "q08_half_store_price", Q: s.dateRange(natural(y, time.January, 1), natural(y, time.June, 30), store, sumPrice)},
		{Name: "q09_year_item_qty", Q: s.dateRange(natural(y, time.January, 1), natural(y, time.December, 31), item, sumQty)},
		{Name: "q10_week_item_cnt", Q: s.dateRange(natural(y, time.March, 1), natural(y, time.March, 7), item, cnt)},
		{Name: "q11_holiday_store_full", Q: s.dateRange(natural(y, time.November, 20), natural(y, time.December, 31), store, full)},
		{Name: "q12_y2_month_item_price", Q: s.dateRange(natural(y+1, time.March, 1), natural(y+1, time.March, 31), item, sumPrice)},
		{Name: "q13_y2_quarter_both_cnt", Q: s.dateRange(natural(y+1, time.April, 1), natural(y+1, time.June, 30), both, cnt)},
	}
}

// QueriesExtension returns the five extension queries: date ranges whose
// GROUP BY and ORDER BY are on the sold-date key itself, so that after join
// elimination the fact index also provides grouping and order (the paper's
// combination of the [18] rewrite with the Example 1 order-by rewrite; in
// SQL the user orders by natural date, which the OD [d_date_sk] ↔ [d_date]
// maps onto the surrogate key).
func (s *Star) QueriesExtension() []BenchQuery {
	y, natural := s.Config.StartYear, warehouse.NaturalDate
	sk := core.List{warehouse.SSDateSK}
	sumQty := []engine.Agg{{Kind: engine.Sum, Attr: warehouse.SSQty, As: "sum_qty"}}
	sumPrice := []engine.Agg{{Kind: engine.Sum, Attr: warehouse.SSPrice, As: "sum_price"}}
	cnt := []engine.Agg{{Kind: engine.Count, As: "cnt"}}
	mk := func(name string, lo, hi int64, aggs []engine.Agg) BenchQuery {
		q := s.dateRange(lo, hi, sk, aggs)
		q.OrderBy = sk
		return BenchQuery{Name: name, Q: q}
	}
	return []BenchQuery{
		mk("q14_daily_qty_month", natural(y, time.July, 1), natural(y, time.July, 31), sumQty),
		mk("q15_daily_price_quarter", natural(y, time.July, 1), natural(y, time.September, 30), sumPrice),
		mk("q16_daily_cnt_60day", natural(y, time.September, 1), natural(y, time.October, 30), cnt),
		mk("q17_daily_qty_year", natural(y, time.January, 1), natural(y, time.December, 31), sumQty),
		mk("q18_daily_price_y2", natural(y+1, time.January, 1), natural(y+1, time.February, 28), sumPrice),
	}
}

// Queries18 returns the full extended suite: the thirteen base queries plus
// the five extension queries.
func (s *Star) Queries18() []BenchQuery {
	return append(s.Queries13(), s.QueriesExtension()...)
}
