package warehouse

import (
	"fmt"
	"math/rand"
	"time"

	"odlib/internal/core"
)

// Attribute names of the schema, TPC-DS style.
const (
	DDateSK   core.Attribute = "d_date_sk"
	DDate     core.Attribute = "d_date"
	DYear     core.Attribute = "d_year"
	DQoy      core.Attribute = "d_qoy"
	DMoy      core.Attribute = "d_moy"
	DDom      core.Attribute = "d_dom"
	DWeekSeq  core.Attribute = "d_week_seq"
	SSDateSK  core.Attribute = "ss_sold_date_sk"
	SSItemSK  core.Attribute = "ss_item_sk"
	SSStoreSK core.Attribute = "ss_store_sk"
	SSQty     core.Attribute = "ss_quantity"
	SSPrice   core.Attribute = "ss_sales_price"
)

var (
	dateDimAttrs = core.List{DDateSK, DDate, DYear, DQoy, DMoy, DDom, DWeekSeq}
	salesAttrs   = core.List{SSDateSK, SSItemSK, SSStoreSK, SSQty, SSPrice}
)

// firstSK matches the TPC-DS convention for the first date surrogate key.
const firstSK = 2450815

// Config sizes the generated warehouse.
type Config struct {
	StartYear int   // first calendar year in date_dim
	Days      int   // days in date_dim
	FactRows  int   // rows in store_sales
	Items     int   // distinct items
	Stores    int   // distinct stores
	Seed      int64 // generator seed; runs are deterministic per seed
}

// DefaultConfig is a laptop-scale warehouse: two years of dates and a
// hundred thousand sales.
func DefaultConfig() Config {
	return Config{StartYear: 2000, Days: 731, FactRows: 100_000, Items: 120, Stores: 12, Seed: 1}
}

// Warehouse holds the generated tables, each as one integer column per
// attribute of its schema.
type Warehouse struct {
	Config       Config
	dates, sales []core.Column
}

// Generate builds the warehouse: date_dim rows in calendar order with
// sequential surrogate keys (establishing the ODs below by construction),
// and fact rows with uniformly distributed dates, items and stores.
func Generate(cfg Config) (*Warehouse, error) {
	if cfg.Days <= 0 || cfg.FactRows < 0 || cfg.Items <= 0 || cfg.Stores <= 0 {
		return nil, fmt.Errorf("warehouse: bad config %+v", cfg)
	}
	w := &Warehouse{Config: cfg,
		dates: make([]core.Column, len(dateDimAttrs)), sales: make([]core.Column, len(salesAttrs))}
	start := time.Date(cfg.StartYear, 1, 1, 0, 0, 0, 0, time.UTC)
	epoch := time.Date(1970, 1, 5, 0, 0, 0, 0, time.UTC) // a Monday
	for i := range cfg.Days {
		d := start.AddDate(0, 0, i)
		appendRow(w.dates, firstSK+int64(i), NaturalDate(d.Year(), d.Month(), d.Day()), int64(d.Year()),
			int64((d.Month()-1)/3+1), int64(d.Month()), int64(d.Day()), int64(d.Sub(epoch).Hours()/24)/7)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for range cfg.FactRows {
		appendRow(w.sales, firstSK+int64(rng.Intn(cfg.Days)), 1+int64(rng.Intn(cfg.Items)), 1+int64(rng.Intn(cfg.Stores)),
			1+int64(rng.Intn(100)), 100+int64(rng.Intn(9900))) // price in cents
	}
	return w, nil
}

// appendRow appends one row to a table of integer columns.
func appendRow(cols []core.Column, vals ...int64) {
	for c, v := range vals {
		cols[c].Ints = append(cols[c].Ints, v)
	}
}

// DeclaredODs returns the order dependencies that hold on the date dimension
// by construction — the constraint knowledge the paper's prototype declares
// as check constraints.
func DeclaredODs() []core.OD {
	var ods []core.OD
	add := func(text string) {
		parsed, err := core.ParseStatements(text)
		if err != nil {
			panic(err) // static text
		}
		ods = append(ods, parsed...)
	}
	add("[d_date_sk] <-> [d_date]")
	add("[d_date] <-> [d_year, d_moy, d_dom]")
	add("[d_date] -> [d_week_seq]")
	add("[d_moy] -> [d_qoy]")
	add("[d_date_sk] -> [d_year, d_moy]")
	return ods
}

// DateDimRelation returns the generated date dimension as a core relation —
// the instance OD discovery mines. The dimension's 7 attributes
// sit exactly at the discovery layer's default attribute budget, and its
// calendar structure mixes monotone attributes (surrogate key, date, week
// sequence), hierarchy edges (month determines quarter) and cyclical ones
// (day-of-month, month-of-year), so discovered sets exercise every
// violation kind. Each call returns a new relation over the same columns.
func (w *Warehouse) DateDimRelation() (*core.Relation, error) {
	return core.NewRelationColumns(dateDimAttrs, w.Config.Days, w.dates)
}

// SalesRelation returns the generated store_sales fact table as a core
// relation over the warehouse's columns.
func (w *Warehouse) SalesRelation() (*core.Relation, error) {
	return core.NewRelationColumns(salesAttrs, w.Config.FactRows, w.sales)
}

// NaturalDate is the d_date integer encoding of a calendar day, yyyymmdd.
func NaturalDate(year int, month time.Month, day int) int64 {
	return int64(year)*10000 + int64(month)*100 + int64(day)
}
