package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Relation is a relation instance: a schema (an attribute list, fixing column
// order) and a sequence of rows. The paper states its definitions over sets
// of tuples but notes that multisets change nothing; Relation allows
// duplicate rows.
//
// Ordered operations (SortedIndexOn, SortPartitionOn, Satisfies,
// SatisfiesWith) run on a per-column rank view — dense int32 ranks in
// Value.Compare order — built lazily on the first ordered use of a column,
// immutable from then on and dropped by AddRow. Readers may share a relation
// across goroutines; AddRow may not run beside them. Ordered work reuses the
// buffers of a Scratch, and Release ends it once that work is done: from
// then on every ordered operation fails, and a second Release does nothing.
//
// A relation is built from rows of Values (AddRow, NewRelationRows) or from
// typed columns (NewRelationColumns). A columnar relation ranks its columns
// straight from the vectors and lays its cells out as rows only if something
// asks for a Value: on the first Row, Value, CompareOn, Project, Clone,
// String or AddRow.
type Relation struct {
	attrs List
	pos   map[Attribute]int
	n     int // rows
	// cols is a columnar relation's cells, nil for one built from rows and
	// after AddRow; rows is filled from it, once, by table.
	cols     []Column
	rowsOnce sync.Once
	rows     [][]Value
	// views holds one rank view per column, each nil until the column's
	// first ordered use; the slice itself appears with the first view and
	// AddRow drops it whole.
	views atomic.Pointer[[]atomic.Pointer[colRanks]]
	sc    *Scratch // the request scratch it was built on, if any
	// viewsBuilt and viewRows count the rank views published and their rows,
	// viewCompared the rows of those sorted by value, for KernelStats.
	viewsBuilt, viewRows, viewCompared atomic.Uint64
}

// NewRelation creates an empty relation over the given schema. It returns an
// error if the schema repeats an attribute.
func NewRelation(attrs List) (*Relation, error) {
	if attrs.HasDuplicates() {
		return nil, fmt.Errorf("core: schema %v repeats an attribute", attrs)
	}
	pos := make(map[Attribute]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	return &Relation{attrs: attrs.Clone(), pos: pos}, nil
}

// NewRelationRows creates a relation of n rows over the given schema in one
// step: the bulk form of NewRelation followed by n AddRows, with one backing
// allocation for all cells and no per-row copy. fill is called once per row,
// in order, to set the row's cells (all Null on entry); the first error it
// returns aborts the construction.
func NewRelationRows(attrs List, n int, fill func(i int, row []Value) error) (*Relation, error) {
	r, err := NewRelation(attrs)
	if err != nil {
		return nil, err
	}
	r.n, r.rows = n, blankRows(n, len(attrs))
	for i, row := range r.rows {
		if err := fill(i, row); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// blankRows lays out n rows of w Null cells over one backing allocation.
func blankRows(n, w int) [][]Value {
	cells := make([]Value, n*w)
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// Column is one attribute's cells as a typed vector, one element per row:
// exactly one of the three is in use (any of them, all empty, for a relation
// of no rows).
type Column struct {
	Ints   []int64
	Floats []float64
	Strs   []string
}

// NewRelationColumns creates a relation of n rows from one typed vector per
// attribute, which it keeps and never copies: the form a decoder that knows
// each column's type delivers, at 8 or 16 bytes a cell where a Value takes
// 40. Ordered operations rank the vectors directly; the rows of Values exist
// from the first value-level access on.
func NewRelationColumns(attrs List, n int, cols []Column) (*Relation, error) {
	r, err := NewRelation(attrs)
	if err != nil {
		return nil, err
	}
	if len(cols) != len(attrs) {
		return nil, fmt.Errorf("core: %d columns given, schema %v has %d attributes", len(cols), attrs, len(attrs))
	}
	for i, col := range cols {
		lens := [3]int{len(col.Ints), len(col.Floats), len(col.Strs)}
		if lens[0]+lens[1]+lens[2] != n || max(lens[0], lens[1], lens[2]) != n {
			return nil, fmt.Errorf("core: column %s is not one vector of %d cells", attrs[i], n)
		}
	}
	r.n, r.cols = n, cols
	return r, nil
}

// table returns the rows of Values, laying a columnar relation's out on the
// first call.
func (r *Relation) table() [][]Value {
	r.rowsOnce.Do(r.layOutRows)
	return r.rows
}

func (r *Relation) layOutRows() {
	if len(r.rows) == r.n {
		return // built from rows
	}
	r.rows = blankRows(r.n, len(r.attrs))
	for c, col := range r.cols {
		for i, v := range col.Ints {
			r.rows[i][c] = Int(v)
		}
		for i, v := range col.Floats {
			r.rows[i][c] = Float(v)
		}
		for i, v := range col.Strs {
			r.rows[i][c] = Str(v)
		}
	}
}

// MustRelation is NewRelation that panics on schema errors; it is intended
// for literals in tests and examples.
func MustRelation(attrs List) *Relation {
	r, err := NewRelation(attrs)
	if err != nil {
		panic(err)
	}
	return r
}

// Attrs returns the relation's schema.
func (r *Relation) Attrs() List { return r.attrs }

// Len returns the number of rows.
func (r *Relation) Len() int { return r.n }

// HasAttr reports whether the schema contains attribute a.
func (r *Relation) HasAttr(a Attribute) bool {
	_, ok := r.pos[a]
	return ok
}

// Col returns the column index of attribute a, or an error if absent.
func (r *Relation) Col(a Attribute) (int, error) {
	i, ok := r.pos[a]
	if !ok {
		return 0, fmt.Errorf("core: attribute %s not in schema %v", a, r.attrs)
	}
	return i, nil
}

// AddRow appends a row. The number of values must match the schema.
func (r *Relation) AddRow(vals ...Value) error {
	if len(vals) != len(r.attrs) {
		return fmt.Errorf("core: row has %d values, schema %v has %d attributes",
			len(vals), r.attrs, len(r.attrs))
	}
	row := make([]Value, len(vals))
	copy(row, vals)
	r.rows = append(r.table(), row)
	r.n, r.cols = r.n+1, nil // the vectors no longer hold every row
	if v := r.views.Load(); v != nil && v != &released {
		r.views.Store(nil)
	}
	return nil
}

// AddIntRow appends a row of integer values.
func (r *Relation) AddIntRow(vals ...int64) error {
	row := make([]Value, len(vals))
	for i, v := range vals {
		row[i] = Int(v)
	}
	return r.AddRow(row...)
}

// Row returns row i. The returned slice must not be modified.
func (r *Relation) Row(i int) []Value { return r.table()[i] }

// Value returns the value of attribute a in row i.
func (r *Relation) Value(i int, a Attribute) (Value, error) {
	c, err := r.Col(a)
	if err != nil {
		return Value{}, err
	}
	return r.table()[i][c], nil
}

// Project returns a new relation over the attributes of x (first occurrences,
// duplicates removed) with the corresponding values of every row.
func (r *Relation) Project(x List) (*Relation, error) {
	x = x.Normalize()
	cols := make([]int, len(x))
	for i, a := range x {
		c, err := r.Col(a)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	rows := r.table()
	return NewRelationRows(x, r.n, func(k int, vals []Value) error {
		for i, c := range cols {
			vals[i] = rows[k][c]
		}
		return nil
	})
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	rows := r.table()
	out, err := NewRelationRows(r.attrs, r.n, func(i int, row []Value) error {
		copy(row, rows[i])
		return nil
	})
	if err != nil {
		panic(err) // unreachable: r's own schema is duplicate-free
	}
	return out
}

// CompareOn lexicographically compares rows i and j along the attribute list
// x (Definition 1). It returns -1 if row i ≺X row j, 0 if they are equal on
// X, and +1 otherwise. Comparing along the empty list yields 0: every tuple
// is ≼[] every other.
func (r *Relation) CompareOn(i, j int, x List) (int, error) {
	rows := r.table()
	ri, rj := rows[i], rows[j]
	for _, a := range x {
		c, ok := r.pos[a]
		if !ok {
			return 0, fmt.Errorf("core: attribute %s not in schema %v", a, r.attrs)
		}
		if cmp := ri[c].Compare(rj[c]); cmp != 0 {
			return cmp, nil
		}
	}
	return 0, nil
}

// LeqOn reports row i ≼X row j (Definition 1).
func (r *Relation) LeqOn(i, j int, x List) (bool, error) {
	c, err := r.CompareOn(i, j, x)
	return c <= 0, err
}

// LessOn reports row i ≺X row j (Definition 2).
func (r *Relation) LessOn(i, j int, x List) (bool, error) {
	c, err := r.CompareOn(i, j, x)
	return c < 0, err
}

// EqOn reports row i =X row j (Definition 3), i.e. the rows agree on every
// attribute of x.
func (r *Relation) EqOn(i, j int, x List) (bool, error) {
	c, err := r.CompareOn(i, j, x)
	return c == 0, err
}

// SortedIndexOn returns the row indices of r ordered by ≼X. The sort is
// stable, so rows tied on X keep their relative order. It is a counting sort
// over the columns' rank views: O(|X|·(n + cardinality)), no value compared.
func (r *Relation) SortedIndexOn(x List) ([]int, error) {
	cols, _, err := r.ranksOn(x, nil)
	if err != nil {
		return nil, err
	}
	sc, s := r.sorter()
	defer r.doneSorting(sc, s)
	idx := make([]int, r.n)
	for k, i := range s.order(r.n, cols) {
		idx[k] = int(i)
	}
	return idx, nil
}

// String renders the relation as a small aligned table for test output.
func (r *Relation) String() string {
	var b strings.Builder
	for i, a := range r.attrs {
		if i > 0 {
			b.WriteByte('\t')
		}
		b.WriteString(string(a))
	}
	b.WriteByte('\n')
	for _, row := range r.table() {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
