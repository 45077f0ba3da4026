package tpcds

import (
	"fmt"

	"odlib/internal/core"
	"odlib/internal/fd"
	"odlib/internal/rewrite"
	"odlib/internal/warehouse"
	"odlib/paper/engine"
)

// Star is a generated warehouse loaded into engine tables.
type Star struct {
	Config         warehouse.Config
	DateDim, Sales *engine.Table
}

// Load copies the warehouse's tables into the engine, with the indexes the
// rewritten plans probe: d_date and d_date_sk on the date dimension, the
// sold-date key on the fact table.
func Load(w *warehouse.Warehouse) (*Star, error) {
	dim, err := load("date_dim", w.DateDimRelation, map[string]core.Attribute{"d_date_idx": warehouse.DDate, "d_date_sk_idx": warehouse.DDateSK})
	if err != nil {
		return nil, err
	}
	sales, err := load("store_sales", w.SalesRelation, map[string]core.Attribute{"ss_date_sk_idx": warehouse.SSDateSK})
	if err != nil {
		return nil, err
	}
	return &Star{Config: w.Config, DateDim: dim, Sales: sales}, nil
}

// load inserts a relation's rows into a new engine table and indexes it on
// each named attribute.
func load(name string, relation func() (*core.Relation, error), indexes map[string]core.Attribute) (*engine.Table, error) {
	rel, err := relation()
	if err != nil {
		return nil, err
	}
	t, err := engine.NewTable(name, rel.Attrs())
	if err != nil {
		return nil, err
	}
	for i := range rel.Len() {
		if err := t.Insert(rel.Row(i)...); err != nil {
			return nil, err
		}
	}
	for ix, a := range indexes {
		if _, err := t.BuildIndex(ix, core.List{a}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// DeclaredFDs returns the functional dependencies of the date dimension.
func DeclaredFDs() []fd.FD {
	return []fd.FD{
		fd.New(core.List{warehouse.DDateSK}, core.List{warehouse.DDate, warehouse.DYear, warehouse.DQoy, warehouse.DMoy, warehouse.DDom, warehouse.DWeekSeq}),
		fd.New(core.List{warehouse.DDate}, core.List{warehouse.DDateSK}),
		fd.New(core.List{warehouse.DYear, warehouse.DMoy, warehouse.DDom}, core.List{warehouse.DDate}),
		fd.New(core.List{warehouse.DMoy}, core.List{warehouse.DQoy}),
	}
}

// Constraints bundles the declared knowledge for the planner.
func Constraints() *rewrite.Constraints {
	return rewrite.NewConstraints(DeclaredFDs(), warehouse.DeclaredODs())
}

// Verify checks every declared OD and FD against the generated date
// dimension instance — the integrity-constraint check the prototype's new
// constraint type performs. An FD is checked as the OD it is (X ↦ XY).
func Verify(w *warehouse.Warehouse) error {
	rel, err := w.DateDimRelation()
	if err != nil {
		return err
	}
	ods := warehouse.DeclaredODs()
	for _, f := range DeclaredFDs() {
		ods = append(ods, f.OD())
	}
	for _, od := range ods {
		ok, v, err := rel.Satisfies(od)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("tpcds: declared dependency falsified: %w", v)
		}
	}
	return nil
}
