package engine

import (
	"fmt"
	"slices"

	"odlib/internal/core"
)

// This file implements the paper's prototype feature from Section 2.3: "We
// have added a new type of check constraint which expresses an OD." Tables
// carry declared order dependencies; CheckConstraints validates them
// against the data with split/swap witnesses, and Declared() hands the
// verified knowledge to the planner.

// DeclareOD registers an order dependency as an integrity constraint of the
// table. Constraints are validated lazily: call CheckConstraints after
// loading (checking per insert would re-sort the table each time).
func (t *Table) DeclareOD(od core.OD) error {
	for a := range od.Attrs() {
		if _, err := t.Col(a); err != nil {
			return fmt.Errorf("engine: constraint %s: %w", od, err)
		}
	}
	t.constraints = append(t.constraints, od)
	return nil
}

// Declared returns the table's declared OD constraints.
func (t *Table) Declared() []core.OD {
	return slices.Clone(t.constraints)
}

// CheckConstraints validates every declared OD against the current rows,
// returning the first violation as an error carrying the offending rows —
// the admission check an OD check constraint performs.
func (t *Table) CheckConstraints() error {
	if len(t.constraints) == 0 {
		return nil
	}
	rel, err := t.AsRelation()
	if err != nil {
		return err
	}
	for _, od := range t.constraints {
		ok, v, err := rel.Satisfies(od)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("engine: table %s violates declared constraint: %w", t.Name, v)
		}
	}
	return nil
}

// AsRelation copies the table into a core.Relation for constraint checking
// and discovery.
func (t *Table) AsRelation() (*core.Relation, error) {
	return core.NewRelationRows(t.schema, len(t.rows), func(i int, row []core.Value) error {
		copy(row, t.rows[i])
		return nil
	})
}
