package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// probeCase decodes a fuzz input into a relation large enough for a probe
// — 32 to 288 rows, 3 to 5 integer columns of 1 to 48 values each — a
// context of two or three of its columns, and one to four right-hand sides
// of one to three columns. The cells come from a generator seeded by the
// whole input.
func probeCase(data []byte) (r *Relation, x []int, ys [][]int) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return i * 7
	}
	rows, width := 32+at(0)%257, 3+at(1)%3
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(h.Sum(nil)))))
	attrs := make(List, width)
	domains := make([]int, width)
	for c := range attrs {
		attrs[c] = Attribute(rune('a' + c))
		domains[c] = 1 + at(2+c)%48
	}
	r = MustRelation(attrs)
	row := make([]int64, width)
	for range rows {
		for c := range row {
			row[c] = int64(rng.Intn(domains[c]))
		}
		if err := r.AddIntRow(row...); err != nil {
			panic(err)
		}
	}
	perm := rng.Perm(width)
	x = perm[:2+at(7)%2]
	for k := range 1 + at(8)%4 {
		cols := rng.Perm(width)
		ys = append(ys, cols[:1+at(9+k)%3])
	}
	return r, x, ys
}

// FuzzPrefixRefuteAgainstFull holds CheckGroup, which refutes on a prefix of
// a context's order before it refines the context, to CheckCols over the
// context's whole partition: on random relations, contexts and right-hand
// sides every kind must be the same, whether the probe decided the group or
// handed it on. Asked again, a decided context is a hit, and probed again.
func FuzzPrefixRefuteAgainstFull(f *testing.F) {
	for i := range 64 {
		f.Add([]byte{byte(i * 37), byte(i), byte(i * 11), byte(40 + i), byte(i * 3), byte(i * 5), byte(i * 13), byte(i), byte(i * 7), byte(i), byte(i + 1), byte(i + 2)})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, x, ys := probeCase(data)
		probed := NewSortCache(r)
		defer probed.Release()
		kinds := make([]ViolationKind, len(ys))
		if err := probed.CheckGroup(x, ys, kinds); err != nil {
			t.Fatal(err)
		}
		full := NewSortCache(r)
		defer full.Release()
		p, err := full.GetCols(x)
		if err != nil {
			t.Fatal(err)
		}
		for i, y := range ys {
			want, err := r.CheckCols(p, y)
			if err != nil {
				t.Fatal(err)
			}
			if kinds[i] != want {
				t.Fatalf("%d rows, context %v, right-hand side %v: CheckGroup %v, CheckCols over the whole order %v (kernel %+v)",
					r.Len(), x, y, kinds[i], want, probed.Kernel())
			}
		}
		if idx, tie, _ := layAll(t, r, x); !slices.Equal(idx, p.Index) || !slices.Equal(tie, p.Tie) {
			t.Fatalf("%d rows, context %v: the probe's layout of every class is not the context's partition", r.Len(), x)
		}
		k := probed.Kernel()
		if _, hits, misses := probed.Stats(); hits != 0 || misses != 1 {
			t.Fatalf("one ask: %d hits, %d misses", hits, misses)
		}
		if err := probed.CheckGroup(x, ys, kinds); err != nil {
			t.Fatal(err)
		}
		again := probed.Kernel()
		if _, hits, misses := probed.Stats(); hits != 1 || misses != 1 {
			t.Fatalf("a context asked twice: %d hits, %d misses", hits, misses)
		}
		if k.ProbeDecided == 1 && again.ProbeDecided != 2 {
			t.Fatalf("a context decided on a prefix was not probed again: %+v, then %+v", k, again)
		}
		if k.ProbeDecided == 0 && again.ProbeRows != k.ProbeRows {
			t.Fatalf("a context answered over its whole order was probed again: %+v, then %+v", k, again)
		}
	})
}

// TestProbeDecidesAndBounds: on a relation whose first classes already
// refute every candidate, the probe decides the group without refining the
// context and places at most n/16 rows; on one where a candidate holds it
// refines, and never probes that context again.
func TestProbeDecidesAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := RandRelation(rng, L("a", "b", "c", "d"), 4000, 50)
	c := NewSortCache(r)
	defer c.Release()
	kinds := make([]ViolationKind, 2)
	if err := c.CheckGroup([]int{0, 1}, [][]int{{2}, {3, 2}}, kinds); err != nil {
		t.Fatal(err)
	}
	k := c.Kernel()
	if k.ProbeDecided != 1 || k.RefineRows != 0 || k.ProbeRows == 0 || k.ProbeRows > 4000/16 {
		t.Fatalf("random context: kinds %v, kernel %+v; want decided on at most 250 rows, nothing refined", kinds, k)
	}
	if size, _, _ := c.Stats(); size != 1 {
		t.Fatalf("the cache holds %d partitions, want [a] alone", size)
	}
	// [a, b] -> [a] holds: the probe cannot decide it.
	if err := c.CheckGroup([]int{0, 1}, [][]int{{2}, {0}}, kinds); err != nil {
		t.Fatal(err)
	}
	k = c.Kernel()
	if kinds[0] == 0 || kinds[1] != 0 || k.ProbeDecided != 1 || k.RefineRows != 4000 {
		t.Fatalf("a holding candidate: kinds %v, kernel %+v; want the context refined", kinds, k)
	}
	if err := c.CheckGroup([]int{0, 1}, [][]int{{2}}, kinds); err != nil {
		t.Fatal(err)
	}
	if again := c.Kernel(); again.ProbeRows != k.ProbeRows {
		t.Fatalf("a context answered over its whole order was probed again: %+v, then %+v", k, again)
	}
	if _, hits, misses := c.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("one context asked three times: %d hits, %d misses", hits, misses)
	}
}

// tiesInRowOrder reports whether p keeps the rows of each of its classes in
// row order, which the probe's counting sort relies on.
func tiesInRowOrder(p *SortedPartition) bool {
	for k, tied := range p.Tie {
		if tied && p.Index[k] > p.Index[k+1] {
			return false
		}
	}
	return true
}

// layAll lays out every class of the partition of X = x[:len(x)-1], each
// ordered by the last column A of x, as a probe would with no bound, and
// returns the order, its ties and the rows it compared.
func layAll(t *testing.T, r *Relation, x []int) (idx []int32, tie []bool, compared uint64) {
	c := NewSortCache(r)
	defer c.Release()
	px, err := c.GetCols(x[:len(x)-1])
	if err != nil {
		t.Fatal(err)
	}
	a, n := r.ranksOf(x[len(x)-1]), r.Len()
	s := &sortScratch{a: make([]int32, n), tie: make([]bool, n), ints: make([]int64, n), next: make([]int32, len(a.start)-1)}
	var cost KernelStats
	if end := layClasses(px, a, 0, n, n, s, &cost); end != n {
		t.Fatalf("context %v: %d of %d rows laid out", x, end, n)
	}
	return s.a, s.tie[:n-1], cost.ComparedRows
}

// TestProbeSortsBothWays: the probe sorts a class of X by A's rank by
// counting when the class has at least as many rows as A has values, and by
// comparing keys when it has fewer. On a relation whose probed classes are
// all large (X of 40 values over 4,000 rows, A of 10) and one whose classes
// are all small (X of 1,000 values, A of 50), every kind CheckGroup reports
// is CheckCols' over the context's whole partition, whether the probe
// decided the group or refined the context; no row is compared on the first
// relation and every probed row on the second; every partition the cache
// holds keeps its classes' rows in row order; and every class laid out the
// probe's way is, row for row and tie for tie, the context's partition.
func TestProbeSortsBothWays(t *testing.T) {
	for _, tc := range []struct {
		name        string
		xs, as      int // the cardinalities of X and A
		allCompared bool
	}{
		{"classes larger than A's cardinality", 40, 10, false},
		{"classes smaller than A's cardinality", 1000, 50, true},
	} {
		rng := rand.New(rand.NewSource(58))
		r, err := NewRelationRows(L("x", "a", "b", "c"), 4000, func(i int, row []Value) error {
			row[0], row[1] = Int(int64(rng.Intn(tc.xs))), Int(int64(rng.Intn(tc.as)))
			row[2], row[3] = Int(int64(rng.Intn(tc.as))), Int(int64(rng.Intn(4)))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		full := NewSortCache(r)
		p, err := full.GetCols([]int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		idx, tie, compared := layAll(t, r, []int{0, 1})
		if compared != 0 && !tc.allCompared || compared != 4000 && tc.allCompared {
			t.Fatalf("%s: every class laid out, %d rows compared", tc.name, compared)
		}
		if !slices.Equal(idx, p.Index) || !slices.Equal(tie, p.Tie) {
			t.Fatalf("%s: the probe's layout of every class is not the partition of [x a]", tc.name)
		}
		for _, ys := range [][][]int{
			{{2}, {3}, {2, 3}, {3, 2}}, // refuted on a prefix
			{{2}, {1}, {0, 1}, {3}},    // [x a] -> [a] and [x a] -> [x a] hold: refined
		} {
			c := NewSortCache(r)
			kinds := make([]ViolationKind, len(ys))
			if err := c.CheckGroup([]int{0, 1}, ys, kinds); err != nil {
				t.Fatal(err)
			}
			for i, y := range ys {
				if want, err := r.CheckCols(p, y); err != nil || kinds[i] != want {
					t.Fatalf("%s: [x a] -> %v: CheckGroup %v, CheckCols over the whole order %v (%v)", tc.name, y, kinds[i], want, err)
				}
			}
			k := c.Kernel()
			want := uint64(0)
			if tc.allCompared {
				want = k.ProbeRows
			}
			if k.ProbeRows == 0 || k.ComparedRows != want {
				t.Fatalf("%s, right-hand sides %v: %d rows probed, %d compared; want %d compared", tc.name, ys, k.ProbeRows, k.ComparedRows, want)
			}
			for _, x := range [][]int{{0}, {1}, {0, 1}} {
				q, err := c.GetCols(x)
				if err != nil {
					t.Fatal(err)
				}
				if !tiesInRowOrder(q) {
					t.Fatalf("%s: the partition of %v has a class out of row order", tc.name, x)
				}
			}
			c.Release()
		}
		full.Release()
	}
}
