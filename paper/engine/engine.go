package engine

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"

	"odlib/internal/core"
)

// Stats accumulates operator work during an execution. Comparisons and rows
// are the engine's cost currency; wall-clock time is measured by benchmarks
// on top.
type Stats struct {
	RowsScanned int64 // rows produced by table and index scans
	RowsOutput  int64 // rows leaving the plan root
	Comparisons int64 // value comparisons in sorts, merges and index probes
	SortedRows  int64 // rows passing through Sort operators
	Sorts       int64 // Sort operators that actually ran
	IndexProbes int64 // binary-search descents into indexes
	HashedRows  int64 // rows inserted into hash tables
	JoinedRows  int64 // rows produced by join operators
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.RowsScanned += other.RowsScanned
	s.RowsOutput += other.RowsOutput
	s.Comparisons += other.Comparisons
	s.SortedRows += other.SortedRows
	s.Sorts += other.Sorts
	s.IndexProbes += other.IndexProbes
	s.HashedRows += other.HashedRows
	s.JoinedRows += other.JoinedRows
}

// Cost reduces the counters to a single scalar for plan comparison. The
// weights are conventional: comparisons dominate sorts, hashing costs about
// as much as scanning.
func (s *Stats) Cost() int64 {
	return s.RowsScanned + 2*s.Comparisons + 3*s.HashedRows + 5*s.IndexProbes
}

// Row is one tuple of engine values.
type Row []core.Value

// Clone copies a row.
func (r Row) Clone() Row { return slices.Clone(r) }

// Operator is a volcano-style iterator. Open prepares the operator, Next
// returns the next row until ok is false, Close releases resources. Rows
// returned by Next must be treated as read-only and may be invalidated by
// the following Next call.
type Operator interface {
	Schema() core.List
	Open() error
	Next() (row Row, ok bool, err error)
	Close() error
}

// Run drains an operator and returns all produced rows, counting them as
// plan output.
func Run(op Operator, stats *Stats) ([]Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []Row
	for {
		row, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, row.Clone())
		if stats != nil {
			stats.RowsOutput++
		}
	}
	return out, nil
}

// schemaPos builds an attribute→column map, validating uniqueness.
func schemaPos(schema core.List) (map[core.Attribute]int, error) {
	if schema.HasDuplicates() {
		return nil, fmt.Errorf("engine: schema %v repeats an attribute", schema)
	}
	pos := make(map[core.Attribute]int, len(schema))
	for i, a := range schema {
		pos[a] = i
	}
	return pos, nil
}

// compareRows lexicographically compares two rows on the given column
// indexes, charging one comparison per column touched.
func compareRows(a, b Row, cols []int, stats *Stats) int {
	for _, c := range cols {
		if stats != nil {
			stats.Comparisons++
		}
		if cmp := a[c].Compare(b[c]); cmp != 0 {
			return cmp
		}
	}
	return 0
}

// colsOf resolves an attribute list to column indexes of a schema.
func colsOf(schema core.List, pos map[core.Attribute]int, list core.List) ([]int, error) {
	out := make([]int, len(list))
	for i, a := range list {
		c, ok := pos[a]
		if !ok {
			return nil, fmt.Errorf("engine: attribute %s not in schema %v", a, schema)
		}
		out[i] = c
	}
	return out, nil
}

// Table is a named, schema-typed row store with optional sorted indexes and
// declared OD check constraints (see constraint.go).
type Table struct {
	Name        string
	schema      core.List
	pos         map[core.Attribute]int
	rows        []Row
	indexes     map[string]*Index
	constraints []core.OD
}

// NewTable creates an empty table.
func NewTable(name string, schema core.List) (*Table, error) {
	pos, err := schemaPos(schema)
	if err != nil {
		return nil, err
	}
	return &Table{
		Name:    name,
		schema:  schema.Clone(),
		pos:     pos,
		indexes: make(map[string]*Index),
	}, nil
}

// Schema returns the table's attribute list.
func (t *Table) Schema() core.List { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Row returns row i (read-only).
func (t *Table) Row(i int) Row { return t.rows[i] }

// Col returns the column index of an attribute.
func (t *Table) Col(a core.Attribute) (int, error) {
	c, ok := t.pos[a]
	if !ok {
		return 0, fmt.Errorf("engine: attribute %s not in table %s%v", a, t.Name, t.schema)
	}
	return c, nil
}

// Insert appends a row. Indexes must be built after loading; inserting
// invalidates them.
func (t *Table) Insert(vals ...core.Value) error {
	if len(vals) != len(t.schema) {
		return fmt.Errorf("engine: row width %d does not match table %s%v", len(vals), t.Name, t.schema)
	}
	t.rows = append(t.rows, slices.Clone(vals))
	clear(t.indexes)
	return nil
}

// Index is a sorted (tree-style) index over a key list: a permutation of row
// ids in key order, probed by binary search. It models the clustered and
// secondary B-tree indexes the paper's plans rely on.
type Index struct {
	Name  string
	Key   core.List
	table *Table
	cols  []int
	perm  []int
}

// BuildIndex sorts a permutation of the table by the key list and registers
// the index under its name.
func (t *Table) BuildIndex(name string, key core.List) (*Index, error) {
	cols, err := colsOf(t.schema, t.pos, key)
	if err != nil {
		return nil, err
	}
	perm := make([]int, len(t.rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return compareRows(t.rows[perm[a]], t.rows[perm[b]], cols, nil) < 0
	})
	idx := &Index{Name: name, Key: key.Clone(), table: t, cols: cols, perm: perm}
	t.indexes[name] = idx
	return idx, nil
}

// IndexOn returns a registered index whose key list has the given list as a
// prefix, if any. A scan of such an index delivers rows in an order that
// covers ORDER BY list.
func (t *Table) IndexOn(list core.List) *Index {
	for _, idx := range t.indexes {
		if idx.Key.HasPrefix(list) {
			return idx
		}
	}
	return nil
}

// Index returns the index registered under name, or nil.
func (t *Table) Index(name string) *Index { return t.indexes[name] }

// Indexes returns the table's indexes sorted by name, for deterministic
// plan enumeration.
func (t *Table) Indexes() []*Index {
	out := slices.Collect(maps.Values(t.indexes))
	slices.SortFunc(out, func(a, b *Index) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// probe returns the first position in the index whose key-prefix compares
// >= (or > when strict) the given bound values, charging binary-search
// comparisons.
func (ix *Index) probe(bound []core.Value, strict bool, stats *Stats) int {
	if stats != nil {
		stats.IndexProbes++
	}
	cols := ix.cols[:len(bound)]
	return sort.Search(len(ix.perm), func(i int) bool {
		row := ix.table.rows[ix.perm[i]]
		cmp := 0
		for k, c := range cols {
			if stats != nil {
				stats.Comparisons++
			}
			cmp = row[c].Compare(bound[k])
			if cmp != 0 {
				break
			}
		}
		if strict {
			return cmp > 0
		}
		return cmp >= 0
	})
}

// Range returns the half-open positions [lo, hi) of index entries whose key
// prefix lies between the inclusive bounds. Either bound may be nil.
func (ix *Index) Range(lo, hi []core.Value, stats *Stats) (int, int) {
	start := 0
	if lo != nil {
		start = ix.probe(lo, false, stats)
	}
	end := len(ix.perm)
	if hi != nil {
		end = ix.probe(hi, true, stats)
	}
	if end < start {
		end = start
	}
	return start, end
}

// LookupRange materializes the row ids whose key prefix lies within the
// inclusive bounds — the "two probes" pattern of the paper's date rewrite.
func (ix *Index) LookupRange(lo, hi []core.Value, stats *Stats) []int {
	start, end := ix.Range(lo, hi, stats)
	out := make([]int, 0, end-start)
	out = append(out, ix.perm[start:end]...)
	return out
}
