package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// The differential oracle of the rank kernel: the comparator implementations
// SortedIndexOn, SortPartitionOn, Satisfies and SatisfiesWith had before they
// moved onto rank views, kept verbatim. They compare Values through
// CompareOn and sort with sort.SliceStable; the kernel must agree with them
// element for element.

func sortedIndexOnCmp(r *Relation, x List) ([]int, error) {
	cols := make([]int, len(x))
	for i, a := range x {
		c, err := r.Col(a)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	idx := make([]int, len(r.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := r.rows[idx[a]], r.rows[idx[b]]
		for _, c := range cols {
			if cmp := ra[c].Compare(rb[c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return idx, nil
}

func sortPartitionOnCmp(r *Relation, x List) (*SortedPartition, error) {
	idx, err := sortedIndexOnCmp(r, x)
	if err != nil {
		return nil, err
	}
	p := &SortedPartition{Context: x.Clone(), Index: make([]int32, len(idx))}
	for k, i := range idx {
		p.Index[k] = int32(i)
	}
	if len(idx) == 0 {
		return p, nil
	}
	p.Tie = make([]bool, len(idx)-1)
	p.Groups = 1
	for k := 0; k+1 < len(idx); k++ {
		c, err := r.CompareOn(idx[k], idx[k+1], x)
		if err != nil {
			return nil, err
		}
		p.Tie[k] = c == 0
		if c != 0 {
			p.Groups++
		}
	}
	return p, nil
}

func satisfiesWithCmp(r *Relation, od OD, p *SortedPartition) (bool, *Violation, error) {
	for k := 0; k+1 < len(p.Index); k++ {
		s, t := int(p.Index[k]), int(p.Index[k+1])
		cy, err := r.CompareOn(s, t, od.RHS)
		if err != nil {
			return false, nil, err
		}
		switch {
		case p.Tie[k] && cy != 0:
			if cy > 0 {
				s, t = t, s
			}
			return false, &Violation{OD: od, Kind: Split, S: s, T: t}, nil
		case !p.Tie[k] && cy > 0:
			return false, &Violation{OD: od, Kind: Swap, S: s, T: t}, nil
		}
	}
	return true, nil, nil
}

func satisfiesCmp(r *Relation, od OD) (bool, *Violation, error) {
	p, err := sortPartitionOnCmp(r, od.LHS)
	if err != nil {
		return false, nil, err
	}
	return satisfiesWithCmp(r, od, p)
}

// randMixedRelation draws a relation whose columns each follow one of six
// shapes — Int, Float, String, Int and Float mixed (so Int(1) and Float(1)
// must share a rank), every kind mixed with Null, or constant — over domains
// small enough that duplicates and ties are the common case.
func randMixedRelation(rng *rand.Rand, attrs List, rows int) *Relation {
	shapes := make([]int, len(attrs))
	for c := range shapes {
		shapes[c] = rng.Intn(6)
	}
	cell := func(shape int) Value {
		v := rng.Intn(4)
		switch shape {
		case 0:
			return Int(int64(v) - 1)
		case 1:
			return Float(float64(v)/2 - 0.5)
		case 2:
			return Str(string(rune('a' + v)))
		case 3:
			if rng.Intn(2) == 0 {
				return Int(int64(v))
			}
			return Float(float64(v) / 2)
		case 4:
			return []Value{Null(), Int(int64(v)), Float(float64(v) / 2), Str(string(rune('a' + v)))}[rng.Intn(4)]
		default:
			return Str("k")
		}
	}
	r, err := NewRelationRows(attrs, rows, func(_ int, row []Value) error {
		for c := range row {
			row[c] = cell(shapes[c])
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return r
}

func samePartition(a, b *SortedPartition) bool {
	return a.Context.Equal(b.Context) && slices.Equal(a.Index, b.Index) && slices.Equal(a.Tie, b.Tie) && a.Groups == b.Groups
}

// refutation is SatisfiesWith's witness as Satisfies reports one: nil when
// the OD holds.
func refutation(holds bool, v Violation) *Violation {
	if holds {
		return nil
	}
	return &v
}

func sameViolation(a, b *Violation) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Kind == b.Kind && a.S == b.S && a.T == b.T
}

// TestRankKernelAgainstComparator: on 600 seeded random relations of every
// column shape, 0 to 12 rows, and contexts of length 0 to 3 with repeated
// attributes, the rank kernel returns exactly what the comparator code
// returned — the same order, the same tie structure, the same verdict and
// the same witness rows — from a sort of the whole relation and from a
// SortCache refining the context's prefix alike; then the refinement again on
// relations of 200 to 2,000 rows, with classes of one row and of hundreds.
func TestRankKernelAgainstComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	universe := L("A", "B", "C", "D")
	for trial := 0; trial < 600; trial++ {
		rows := trial % 4 // 0-, 1-, 2- and 3-row relations get a quarter of the trials between them
		if trial%4 == 3 {
			rows = 3 + rng.Intn(10)
		}
		r := randMixedRelation(rng, universe, rows)
		for q := 0; q < 6; q++ {
			od := RandOD(rng, universe, 3)
			ctx := fmt.Sprintf("trial %d, %s\n%s", trial, od, r)

			want, err := sortPartitionOnCmp(r, od.LHS)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := r.SortedIndexOn(od.LHS)
			if err != nil {
				t.Fatal(err)
			}
			if wantIdx, _ := sortedIndexOnCmp(r, od.LHS); !slices.Equal(idx, wantIdx) {
				t.Fatalf("SortedIndexOn = %v, comparator sort %v\n%s", idx, wantIdx, ctx)
			}
			got, err := r.SortPartitionOn(od.LHS)
			if err != nil {
				t.Fatal(err)
			}
			if !samePartition(got, want) {
				t.Fatalf("SortPartitionOn = %+v, comparator %+v\n%s", got, want, ctx)
			}
			refined, err := NewSortCache(r).Get(od.LHS)
			if err != nil {
				t.Fatal(err)
			}
			if !samePartition(refined, want) {
				t.Fatalf("SortCache.Get = %+v, comparator %+v\n%s", refined, want, ctx)
			}

			wantOK, wantV, err := satisfiesCmp(r, od)
			if err != nil {
				t.Fatal(err)
			}
			gotOK, gotV, err := r.Satisfies(od)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || !sameViolation(gotV, wantV) {
				t.Fatalf("Satisfies = %v %+v, comparator %v %+v\n%s", gotOK, gotV, wantOK, wantV, ctx)
			}
			gotOK, gotW, err := r.SatisfiesWith(od, got)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || !sameViolation(refutation(gotOK, gotW), wantV) {
				t.Fatalf("SatisfiesWith = %v %+v, comparator %v %+v\n%s", gotOK, gotW, wantOK, wantV, ctx)
			}
		}
	}

	// 200 to 2,000 rows over a key K (every class of it is one row: nothing
	// to refine), a few groups G (classes of 25 rows and more), a column L of
	// fewer values than a class of G has rows and a column H of more, a
	// constant C (refines nothing) and a float column F. One cache per
	// relation, so the contexts are refined from one another's retained
	// prefixes, in a shuffled order.
	wide := L("K", "G", "L", "H", "C", "F")
	contexts := []List{
		L("G", "L"), L("G", "H"), L("G", "F"), L("K", "L"), L("G", "C"), L("G", "C", "H"),
		L("G", "L", "H"), L("G", "L", "H", "K"), L("L", "H"), L("H", "L", "G"), L("L", "G", "F", "H"),
		L("G", "G"), L("G", "L", "G"), L("L", "L", "H"), L("C", "G", "L"), L("F", "L"),
	}
	for trial := 0; trial < 12; trial++ {
		rows := 200 + rng.Intn(1801)
		groups, low, high := 2+rng.Intn(7), 2+rng.Intn(6), rows/2+rng.Intn(rows)
		keys := rng.Perm(rows)
		r, err := NewRelationRows(wide, rows, func(i int, row []Value) error {
			row[0], row[1], row[2] = Int(int64(keys[i])), Int(int64(rng.Intn(groups))), Str(string(rune('a'+rng.Intn(low))))
			row[3], row[4], row[5] = Int(int64(rng.Intn(high))), Str("k"), Float(float64(rng.Intn(40))/4)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cache := NewSortCache(r)
		rng.Shuffle(len(contexts), func(i, j int) { contexts[i], contexts[j] = contexts[j], contexts[i] })
		for _, x := range contexts {
			want, err := sortPartitionOnCmp(r, x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cache.Get(x)
			if err != nil {
				t.Fatal(err)
			}
			if !samePartition(got, want) {
				t.Fatalf("trial %d (%d rows): SortCache.Get(%v) differs from the comparator sort: %d groups against %d",
					trial, rows, x, got.Groups, want.Groups)
			}
			od := NewOD(x, L("H", "L"))
			wantOK, wantV, err := satisfiesWithCmp(r, od, want)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK, gotV, err := r.SatisfiesWith(od, got); err != nil || gotOK != wantOK || !sameViolation(refutation(gotOK, gotV), wantV) {
				t.Fatalf("trial %d: SatisfiesWith(%s) = %v %+v, %v; comparator %v %+v", trial, od, gotOK, gotV, err, wantOK, wantV)
			}
		}
	}
}

// columnarTwin builds the table of r — whose every column must hold cells of
// one kind, none Null — a second time, through NewRelationColumns.
func columnarTwin(r *Relation) *Relation {
	cols := make([]Column, len(r.Attrs()))
	for i := 0; i < r.Len(); i++ {
		for c, v := range r.Row(i) {
			switch v.Kind {
			case KindInt:
				cols[c].Ints = append(cols[c].Ints, v.Int)
			case KindFloat:
				cols[c].Floats = append(cols[c].Floats, v.F)
			default:
				cols[c].Strs = append(cols[c].Strs, v.Str)
			}
		}
	}
	twin, err := NewRelationColumns(r.Attrs(), r.Len(), cols)
	if err != nil {
		panic(err)
	}
	return twin
}

// TestRelationColumnsMatchesRows: a relation built from typed columns and one
// built row by row from the same cells are the same relation — the same rows,
// the same rank view of every column (dense and sparse integers, floats,
// strings), the same verdicts and witnesses — and AddRow on the columnar one
// keeps every earlier row and drops the views.
func TestRelationColumnsMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	attrs := L("A", "B", "C", "D", "E")
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		if trial%10 == 0 {
			n = 0
		}
		// One kind per column: a dense integer range (ranked through the
		// presence table), integers spread over ±2⁶² (sorted), floats,
		// strings.
		kinds := make([]int, len(attrs))
		for c := range kinds {
			kinds[c] = rng.Intn(4)
		}
		rows := MustRelation(attrs)
		for i := 0; i < n; i++ {
			row := make([]Value, len(attrs))
			for c, k := range kinds {
				switch v := rng.Intn(6); k {
				case 0:
					row[c] = Int(int64(v) - 2)
				case 1:
					row[c] = Int((int64(v) - 3) << 60)
				case 2:
					row[c] = Float(float64(v)/2 - 1)
				default:
					row[c] = Str(string(rune('a' + v)))
				}
			}
			if err := rows.AddRow(row...); err != nil {
				t.Fatal(err)
			}
		}
		cols := columnarTwin(rows)
		if cols.Len() != n {
			t.Fatalf("trial %d: Len = %d, want %d", trial, cols.Len(), n)
		}
		for c := range attrs {
			got, want := cols.ranksOf(c), rows.ranksOf(c)
			if !slices.Equal(got.rank, want.rank) || !slices.Equal(got.start, want.start) {
				t.Fatalf("trial %d, column %s: ranks from the vector %v %v, from rows %v %v\n%s",
					trial, attrs[c], got.rank, got.start, want.rank, want.start, rows)
			}
		}
		if len(cols.rows) != 0 {
			t.Fatalf("trial %d: ranking laid out the rows of Values", trial)
		}
		for q := 0; q < 6; q++ {
			od := RandOD(rng, attrs, 3)
			wantOK, wantV, err := rows.Satisfies(od)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK, gotV, err := cols.Satisfies(od); err != nil || gotOK != wantOK || !sameViolation(gotV, wantV) {
				t.Fatalf("trial %d: %s: columnar %v %+v, %v; by rows %v %+v\n%s", trial, od, gotOK, gotV, err, wantOK, wantV, rows)
			}
		}
		sameRows := func(when string) {
			t.Helper()
			if cols.Len() != rows.Len() || cols.String() != rows.String() {
				t.Fatalf("trial %d, %s:\n%s\nby rows:\n%s", trial, when, cols, rows)
			}
			for i := 0; i < rows.Len(); i++ {
				if !slices.Equal(cols.Row(i), rows.Row(i)) {
					t.Fatalf("trial %d, %s: Row(%d) = %v, by rows %v", trial, when, i, cols.Row(i), rows.Row(i))
				}
			}
		}
		sameRows("as built")

		// A row that sorts first in every column it can be compared in.
		extra := []Value{Null(), Int(-1 << 62), Float(-9), Str(""), Int(7)}
		for _, r := range []*Relation{cols, rows} {
			if err := r.AddRow(extra...); err != nil {
				t.Fatal(err)
			}
		}
		if cols.views.Load() != nil {
			t.Fatalf("trial %d: AddRow kept the rank views", trial)
		}
		sameRows("after AddRow")
		for c := range attrs {
			if got, want := cols.ranksOf(c), rows.ranksOf(c); !slices.Equal(got.rank, want.rank) {
				t.Fatalf("trial %d, column %s after AddRow: ranks %v, by rows %v", trial, attrs[c], got.rank, want.rank)
			}
		}
	}

	for name, cols := range map[string][]Column{
		"too few columns":  {{Ints: []int64{1, 2}}},
		"short vector":     {{Ints: []int64{1, 2}}, {Strs: []string{"x"}}},
		"two vectors":      {{Ints: []int64{1, 2}}, {Ints: []int64{1}, Floats: []float64{1}}},
		"two full vectors": {{Ints: []int64{1, 2}}, {Ints: []int64{1, 2}, Strs: []string{"x", "y"}}},
		"no vector":        {{Ints: []int64{1, 2}}, {}},
	} {
		if _, err := NewRelationColumns(L("A", "B"), 2, cols); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestAddRowDropsRankView: a row added after the view was built is seen by
// the next ordered operation.
func TestAddRowDropsRankView(t *testing.T) {
	r := mustRel(t, L("A", "B"), []int64{1, 1}, []int64{2, 2})
	od := NewOD(L("A"), L("B"))
	if ok, _, err := r.Satisfies(od); err != nil || !ok {
		t.Fatalf("[A] -> [B] should hold before the swap row: ok=%v err=%v", ok, err)
	}
	if err := r.AddIntRow(3, 0); err != nil {
		t.Fatal(err)
	}
	ok, v, err := r.Satisfies(od)
	if err != nil {
		t.Fatal(err)
	}
	if ok || v.Kind != Swap || v.T != 2 {
		t.Fatalf("after AddRow(3, 0): Satisfies = %v %+v, want a swap against row 2", ok, v)
	}
	idx, err := r.SortedIndexOn(L("B"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(idx, []int{2, 0, 1}) {
		t.Fatalf("after AddRow: SortedIndexOn(B) = %v, want [2 0 1]", idx)
	}
}

// TestRankViewConcurrentFirstUse: goroutines racing on a fresh relation's
// first ordered use each get the comparator's answer (run under -race).
func TestRankViewConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	universe := L("A", "B", "C", "D")
	for trial := 0; trial < 20; trial++ {
		r := randMixedRelation(rng, universe, 64)
		x := L("B", "A", "D")
		od := NewOD(x, L("C"))
		want, err := sortedIndexOnCmp(r, x)
		if err != nil {
			t.Fatal(err)
		}
		wantOK, wantV, err := satisfiesCmp(r, od)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				idx, err := r.SortedIndexOn(x)
				if err != nil || !slices.Equal(idx, want) {
					t.Errorf("trial %d: SortedIndexOn = %v, %v; want %v", trial, idx, err, want)
				}
				ok, v, err := r.Satisfies(od)
				if err != nil || ok != wantOK || !sameViolation(v, wantV) {
					t.Errorf("trial %d: Satisfies = %v %+v, %v; want %v %+v", trial, ok, v, err, wantOK, wantV)
				}
			}()
		}
		wg.Wait()
	}
}

// TestRelationRelease: Release hands a relation's rank views to the pool the
// next relation's views are cut from. Ordered operations on a released
// relation fail while its cells stay readable, a second Release does
// nothing, and every relation built after releases — of rows of mixed kinds
// or of integer columns dense or sparse, longer or shorter than the last, so
// that pooled blocks come back holding another relation's ranks — sorts,
// partitions and decides exactly as the comparator does on its clone, which
// is never released.
func TestRelationRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	universe := L("A", "B", "C", "D")
	for trial := range 300 {
		n := rng.Intn(200)
		var r *Relation
		if trial%2 == 0 {
			r = randMixedRelation(rng, universe, n)
		} else {
			cols := make([]Column, len(universe))
			for c := range cols {
				domain := int64(1 + rng.Intn(n+1)) // dense: the presence table
				if rng.Intn(2) == 0 {
					domain = 1 << 40 // sparse: sorted
				}
				cols[c].Ints = make([]int64, n)
				for i := range cols[c].Ints {
					cols[c].Ints[i] = rng.Int63n(domain)
				}
			}
			var err error
			if r, err = NewRelationColumns(universe, n, cols); err != nil {
				t.Fatal(err)
			}
		}
		ref := r.Clone()
		cache := NewSortCache(r)
		var od OD
		for range 4 {
			od = RandOD(rng, universe, 3)
			want, err := sortedIndexOnCmp(ref, od.LHS)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := r.SortedIndexOn(od.LHS); err != nil || !slices.Equal(got, want) {
				t.Fatalf("trial %d: SortedIndexOn(%v) = %v, %v; comparator %v\n%s", trial, od.LHS, got, err, want, ref)
			}
			wantOK, wantV, err := satisfiesCmp(ref, od)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK, gotV, err := r.Satisfies(od); err != nil || gotOK != wantOK || !sameViolation(gotV, wantV) {
				t.Fatalf("trial %d: Satisfies(%s) = %v %+v, %v; comparator %v %+v\n%s", trial, od, gotOK, gotV, err, wantOK, wantV, ref)
			}
			p, err := cache.Get(od.LHS)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK, gotV, err := r.SatisfiesWith(od, p); err != nil || gotOK != wantOK || !sameViolation(refutation(gotOK, gotV), wantV) {
				t.Fatalf("trial %d: SatisfiesWith(%s) = %v %+v, %v; comparator %v %+v\n%s", trial, od, gotOK, gotV, err, wantOK, wantV, ref)
			}
		}
		cache.Release()
		r.Release()
		r.Release()
		if _, _, err := r.Satisfies(od); !errors.Is(err, errReleased) {
			t.Fatalf("trial %d: Satisfies on a released relation: err = %v, want %v", trial, err, errReleased)
		}
		if _, err := r.SortedIndexOn(od.LHS); !errors.Is(err, errReleased) {
			t.Fatalf("trial %d: SortedIndexOn on a released relation: err = %v, want %v", trial, err, errReleased)
		}
		for i := range n {
			if !slices.Equal(r.Row(i), ref.Row(i)) {
				t.Fatalf("trial %d: row %d of the released relation reads %v, want %v", trial, i, r.Row(i), ref.Row(i))
			}
		}
	}
}

// fuzzTable decodes bytes into a relation of at most 8 rows over at most 4
// columns and one OD over its attributes. Byte 0 is the row count, byte 1
// the column count, bytes 2 and 3 the side lengths (0 to 3 on the left, 0
// to 4 on the right, past the check scan's last specialisation), then one byte
// per side attribute, then one byte per cell, row-major: the low two bits
// pick the kind, the next three the value. Missing bytes read as zero.
func fuzzTable(data []byte) (*Relation, OD) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	rows, cols := next()%9, 1+next()%4
	attrs := L("A", "B", "C", "D")[:cols]
	side := func(n int) List {
		x := make(List, n)
		for i := range x {
			x[i] = attrs[next()%cols]
		}
		return x
	}
	nx, ny := next()%4, next()%5
	od := NewOD(side(nx), side(ny))
	r, err := NewRelationRows(attrs, rows, func(_ int, row []Value) error {
		for c := range row {
			b := next()
			v := b >> 2 & 7
			row[c] = []Value{Int(int64(v)), Float(float64(v) / 2), Str(string(rune('a' + v))), Null()}[b&3]
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return r, od
}

// fuzzSeed encodes an all-integer table and an OD given as column indices in
// fuzzTable's format.
func fuzzSeed(cols int, lhs, rhs []byte, rows ...[]byte) []byte {
	data := []byte{byte(len(rows)), byte(cols - 1), byte(len(lhs)), byte(len(rhs))}
	data = append(append(data, lhs...), rhs...)
	for _, row := range rows {
		for _, v := range row {
			data = append(data, v<<2)
		}
	}
	return data
}

// FuzzSatisfiesAgainstNaive: Satisfies' verdict equals the quadratic
// Definition-4 check's, and a violation it returns is a violation by
// Definitions 13 and 14 directly — the two checkers may pick different
// pairs, so the witness is checked against the definitions, not against the
// naive checker's.
func FuzzSatisfiesAgainstNaive(f *testing.F) {
	// The paper's Example 1 — a date table (year, quarter, month) on which
	// [month] orders [quarter] — then a split and a swap.
	f.Add(fuzzSeed(3, []byte{2}, []byte{1},
		[]byte{0, 0, 0}, []byte{0, 0, 1}, []byte{0, 0, 2}, []byte{0, 1, 3},
		[]byte{0, 1, 4}, []byte{0, 1, 5}, []byte{0, 2, 6}, []byte{0, 2, 7}))
	f.Add(fuzzSeed(2, []byte{0}, []byte{1}, []byte{1, 1}, []byte{1, 2}))
	f.Add(fuzzSeed(2, []byte{0}, []byte{1}, []byte{1, 2}, []byte{2, 1}))
	// Contexts whose refinement shares its parent's arrays: the refining
	// attribute B is constant, then the prefix A is a key.
	f.Add(fuzzSeed(3, []byte{0, 1}, []byte{2}, []byte{2, 5, 1}, []byte{1, 5, 0}, []byte{2, 5, 3}, []byte{0, 5, 2}))
	f.Add(fuzzSeed(3, []byte{0, 1}, []byte{2}, []byte{3, 1, 0}, []byte{1, 1, 2}, []byte{2, 0, 1}, []byte{0, 1, 3}))
	// The check scan holds one, two or three right-hand columns outside its
	// loop and compares longer sides column by column: A ↦ BC with a swap
	// only C decides, then holding; A ↦ BCD with a split only D decides, a
	// swap only D decides, a swap only C decides, then holding; [] ↦ ABCD
	// with a split only the fourth column decides.
	f.Add(fuzzSeed(4, []byte{0}, []byte{1, 2},
		[]byte{0, 1, 1, 0}, []byte{1, 1, 2, 0}, []byte{1, 1, 2, 1}, []byte{2, 1, 0, 0}))
	f.Add(fuzzSeed(4, []byte{0}, []byte{1, 2},
		[]byte{0, 0, 5, 0}, []byte{1, 1, 0, 0}, []byte{1, 1, 0, 3}, []byte{2, 2, 3, 0}))
	f.Add(fuzzSeed(4, []byte{0}, []byte{1, 2, 3},
		[]byte{0, 1, 1, 0}, []byte{1, 2, 2, 0}, []byte{1, 2, 2, 3}, []byte{2, 3, 0, 0}))
	f.Add(fuzzSeed(4, []byte{0}, []byte{1, 2, 3},
		[]byte{0, 1, 1, 5}, []byte{0, 1, 1, 5}, []byte{1, 1, 1, 2}, []byte{2, 1, 2, 0}))
	f.Add(fuzzSeed(4, []byte{0}, []byte{1, 2, 3},
		[]byte{0, 1, 3, 0}, []byte{1, 1, 2, 7}, []byte{2, 2, 0, 0}))
	f.Add(fuzzSeed(4, []byte{0}, []byte{1, 2, 3},
		[]byte{2, 3, 0, 0}, []byte{0, 1, 1, 7}, []byte{1, 2, 2, 0}, []byte{1, 2, 2, 0}, []byte{0, 1, 1, 7}))
	f.Add(fuzzSeed(4, nil, []byte{0, 1, 2, 3},
		[]byte{1, 1, 1, 1}, []byte{1, 1, 1, 1}, []byte{1, 1, 1, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, od := fuzzTable(data)
		checkAgainstNaive(t, r, od)
		checkRefined(t, r, r, od)
		// The table again with every column held to the kind of its first
		// cell (Null read as String), which typed columns can carry: built
		// from rows and from columns, it gets one answer.
		bits := func(v Value) int64 { // the three value bits fuzzTable made the cell of
			switch v.Kind {
			case KindInt:
				return v.Int
			case KindFloat:
				return int64(2 * v.F)
			case KindString:
				return int64(v.Str[0] - 'a')
			}
			return 0
		}
		typed, err := NewRelationRows(r.Attrs(), r.Len(), func(i int, row []Value) error {
			for c, v := range r.Row(i) {
				switch r.Row(0)[c].Kind {
				case KindInt:
					row[c] = Int(bits(v))
				case KindFloat:
					row[c] = Float(float64(bits(v)) / 2)
				default:
					row[c] = Str(string(rune('a' + bits(v))))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstNaive(t, typed, od)
		checkRefined(t, typed, typed, od)
		twin := columnarTwin(typed)
		checkAgainstNaive(t, twin, od)
		checkRefined(t, twin, typed, od)
		wantOK, wantV, _ := typed.Satisfies(od)
		if gotOK, gotV, _ := twin.Satisfies(od); gotOK != wantOK || !sameViolation(gotV, wantV) {
			t.Fatalf("%s: columnar %v %+v, by rows %v %+v\n%s", od, gotOK, gotV, wantOK, wantV, typed)
		}
	})
}

// checkAgainstNaive holds Satisfies on one relation to SatisfiesNaive and
// its witness to Definitions 13 and 14.
func checkAgainstNaive(t *testing.T, r *Relation, od OD) {
	t.Helper()
	want, _, err := r.SatisfiesNaive(od)
	if err != nil {
		t.Fatal(err)
	}
	got, v, err := r.Satisfies(od)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("%s: Satisfies = %v, SatisfiesNaive = %v\n%s", od, got, want, r)
	}
	if got {
		return
	}
	cx, _ := r.CompareOn(v.S, v.T, od.LHS)
	cy, _ := r.CompareOn(v.S, v.T, od.RHS)
	switch v.Kind {
	case Split: // the rows tie on X and differ on Y
		if cx != 0 || cy == 0 {
			t.Fatalf("%s: split witness %d,%d has cx=%d cy=%d\n%s", od, v.S, v.T, cx, cy, r)
		}
	case Swap: // strictly ordered by X, strictly reversed on Y
		if cx >= 0 || cy <= 0 {
			t.Fatalf("%s: swap witness %d,%d has cx=%d cy=%d\n%s", od, v.S, v.T, cx, cy, r)
		}
	default:
		t.Fatalf("%s: violation of kind %v", od, v.Kind)
	}
}

// checkRefined holds the partition a SortCache refines for od's context, and
// SatisfiesWith over it, to the comparator code run on oracle, a relation of
// rows holding r's cells.
func checkRefined(t *testing.T, r, oracle *Relation, od OD) {
	t.Helper()
	want, err := sortPartitionOnCmp(oracle, od.LHS)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSortCache(r).Get(od.LHS)
	if err != nil {
		t.Fatal(err)
	}
	if !samePartition(got, want) {
		t.Fatalf("SortCache.Get(%v) = %+v, comparator %+v\n%s", od.LHS, got, want, oracle)
	}
	wantOK, wantV, err := satisfiesCmp(oracle, od)
	if err != nil {
		t.Fatal(err)
	}
	if gotOK, gotV, err := r.SatisfiesWith(od, got); err != nil || gotOK != wantOK || !sameViolation(refutation(gotOK, gotV), wantV) {
		t.Fatalf("%s: SatisfiesWith over the refined partition = %v %+v, %v; comparator %v %+v\n%s", od, gotOK, gotV, err, wantOK, wantV, oracle)
	}
}
