package discover

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"odlib/internal/core"
)

// listLattice is the lattice as the pipeline once built it for every run:
// the lists themselves, named, with their positions, parents and length
// starts, sized by the run's caps. enumerateLattice, which builds it, is the
// enumerator the shared lattice replaced, kept as its oracle.
type listLattice struct {
	lists          []core.List // id → list; id 0 is the empty list
	pos            [][]uint8   // id → the list as schema positions
	parent         []int32     // id → id of the list minus its last attribute
	start          []int32     // lists of length ℓ are the ids start[ℓ] ≤ id < start[ℓ+1]
	maxLHS, maxRHS int
	nRHS           int32
	refuted        []core.ViolationKind
}

// enumerateLattice enumerates the lists and sizes the refutation table for
// left-hand sides up to maxLHS and right-hand sides up to maxRHS attributes.
func enumerateLattice(attrs core.List, maxLHS, maxRHS int) *listLattice {
	// No duplicate-free list is longer than the schema.
	maxLHS, maxRHS = min(maxLHS, len(attrs)), min(maxRHS, len(attrs))
	la := &listLattice{lists: []core.List{nil}, pos: [][]uint8{nil}, parent: []int32{0}, start: []int32{0, 1}, maxLHS: maxLHS, maxRHS: maxRHS}
	for length := 1; length <= max(maxLHS, maxRHS); length++ {
		for p := la.start[length-1]; p < la.start[length]; p++ {
			for i, a := range attrs {
				if !la.lists[p].Contains(a) {
					la.lists = append(la.lists, la.lists[p].Concat(core.List{a}))
					la.pos = append(la.pos, append(la.pos[p][:length-1:length-1], uint8(i)))
					la.parent = append(la.parent, p)
				}
			}
		}
		la.start = append(la.start, int32(len(la.lists)))
	}
	la.nRHS = la.start[maxRHS+1]
	la.refuted = make([]core.ViolationKind, la.start[maxLHS+1]*la.nRHS)
	return la
}

// schemaOf is an n-attribute schema, c0 to c(n-1).
func schemaOf(n int) core.List {
	attrs := make(core.List, n)
	for i := range attrs {
		attrs[i] = core.Attribute(fmt.Sprintf("c%d", i))
	}
	return attrs
}

// TestLatticeIDScheme: ids are ordered by length then schema position, id 0
// is the empty list, parent names the immediate prefix, and the lists
// admissible on either side are a prefix of the id space.
func TestLatticeIDScheme(t *testing.T) {
	attrs := core.L("A", "B", "C")
	sc := core.TakeScratch()
	b := newRun(sc, attrs, 1, 2, 1)
	defer b.release(sc)
	want := []core.List{
		nil,
		core.L("A"), core.L("B"), core.L("C"),
		core.L("A", "B"), core.L("A", "C"), core.L("B", "A"), core.L("B", "C"), core.L("C", "A"), core.L("C", "B"),
	}
	if n := b.la.start[3]; int(n) != len(want) {
		t.Fatalf("%d lists of up to 2 attributes, want %d", n, len(want))
	}
	for id, l := range want {
		if got := named(attrs, b.la.list(int32(id))); !got.Equal(l) {
			t.Errorf("id %d = %v, want %v", id, got, l)
		}
		if parent := named(attrs, b.la.list(b.la.parent[id])); id > 0 && !parent.Equal(l.Prefix(len(l)-1)) {
			t.Errorf("parent of %v = %v", l, parent)
		}
	}
	if b.nRHS != 10 || len(b.refuted) != 4*10 {
		t.Errorf("nRHS = %d, table of %d slots; want 10 and 4 x 10", b.nRHS, len(b.refuted))
	}
	// A side bound past the schema's width adds no list.
	wide := newRun(sc, core.L("A", "B"), 9, 9, 1)
	defer wide.release(sc)
	if lists := wide.la.start[wide.maxLHS+1]; lists != 5 || len(wide.refuted) != 25 {
		t.Errorf("2 attributes, bounds 9/9: %d lists, %d slots; want 5 and 25", lists, len(wide.refuted))
	}
}

// TestSharedLatticeMatchesEnumeration holds the shared lattice to the
// enumerator every run once ran: for widths 1–9 and every cap pair CheckSize
// admits at that width, the same ids, parents, length starts and positions,
// list for list, and the same refutation-table shape. The pairs run from
// short lists to long, so each width's shared lattice is rebuilt longer on
// the way and the ids of the shorter lists must survive that. The enumerator
// names every list, about 250 MB at nine attributes' longest: under the race
// detector, which multiplies that, the pairs past 2¹⁸ lists (nine attributes
// at eight and nine) are left to the plain run.
func TestSharedLatticeMatchesEnumeration(t *testing.T) {
	pairs := 0
	for width := 1; width <= maxTableAttrs; width++ {
		attrs := schemaOf(width)
		for maxLen := 1; maxLen <= width; maxLen++ {
			for maxLHS := 1; maxLHS <= maxLen; maxLHS++ {
				for maxRHS := 1; maxRHS <= maxLen; maxRHS++ {
					opts := Options{MaxLHS: maxLHS, MaxRHS: maxRHS, MaxAttrs: width}
					if max(maxLHS, maxRHS) != maxLen || opts.CheckSize(width) != nil ||
						raceDetector && listCount(width, maxLen) > 1<<18 {
						continue
					}
					pairs++
					checkSharedLattice(t, attrs, maxLHS, maxRHS)
				}
			}
		}
	}
	t.Logf("%d cap pairs", pairs)
}

// checkSharedLattice compares one run's lattice with the enumerator's.
func checkSharedLattice(t *testing.T, attrs core.List, maxLHS, maxRHS int) {
	t.Helper()
	want := enumerateLattice(attrs, maxLHS, maxRHS)
	sc := core.TakeScratch()
	b := newRun(sc, attrs, maxLHS, maxRHS, 1)
	defer b.release(sc)
	at := fmt.Sprintf("%d attributes, caps %d/%d", len(attrs), maxLHS, maxRHS)
	la := b.la
	if len(la.start) < len(want.start) || !slices.Equal(la.start[:len(want.start)], want.start) {
		t.Fatalf("%s: starts %v, want %v", at, la.start, want.start)
	}
	if b.maxLHS != want.maxLHS || b.maxRHS != want.maxRHS || b.nRHS != want.nRHS || len(b.refuted) != len(want.refuted) {
		t.Fatalf("%s: caps %d/%d, nRHS %d, %d slots; want %d/%d, %d, %d",
			at, b.maxLHS, b.maxRHS, b.nRHS, len(b.refuted), want.maxLHS, want.maxRHS, want.nRHS, len(want.refuted))
	}
	for id := range want.lists {
		got := la.list(int32(id))
		if la.parent[id] != want.parent[id] || len(got) != len(want.pos[id]) {
			t.Fatalf("%s: id %d is %v with parent %d, want %v with parent %d", at, id, got, la.parent[id], want.pos[id], want.parent[id])
		}
		for i, p := range got {
			if p != uint16(want.pos[id][i]) {
				t.Fatalf("%s: id %d is %v, want %v", at, id, got, want.pos[id])
			}
		}
	}
}

// TestSharedLatticeBounded: however many widths and caps clients ask for,
// the shared table keeps one lattice per width up to maxTableAttrs, each
// holding exactly the lists up to its longest — never more than its width's
// full lattice — and a wider schema's lattice, here 40 attributes at caps
// 1/1, is the run's own.
func TestSharedLatticeBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, width := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 40} {
		r := core.RandRelation(rng, schemaOf(width), 6, 3)
		caps := [][2]int{{1, 1}, {2, 1}, {1, 3}, {2, 2}, {3, 2}}
		if width > maxTableAttrs {
			caps = caps[:1]
		}
		for _, c := range caps {
			opts := Options{MaxLHS: c[0], MaxRHS: c[1], MaxAttrs: width, KeepRedundant: true}
			if _, err := Pipeline(context.Background(), r, PipelineOptions{Options: opts, Workers: 2}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(sharedLattices); n != maxTableAttrs+1 {
		t.Fatalf("the shared table has %d entries, want %d", n, maxTableAttrs+1)
	}
	for width := 1; width < len(sharedLattices); width++ {
		la := sharedLattices[width].Load()
		if la == nil {
			t.Fatalf("width %d: no shared lattice after runs of that width", width)
		}
		if lists := len(la.parent); la.maxLen() > width || lists != listCount(width, la.maxLen()) || len(la.off) != lists+1 || int(la.off[lists]) != len(la.pos) {
			t.Fatalf("width %d: a shared lattice of %d lists up to %d attributes, %d offsets and %d positions",
				width, lists, la.maxLen(), len(la.off), len(la.pos))
		}
	}
	sc := core.TakeScratch()
	b := newRun(sc, schemaOf(40), 1, 1, 1)
	defer b.release(sc)
	for width := range sharedLattices {
		if sharedLattices[width].Load() == b.la {
			t.Fatalf("the 40-attribute run's lattice is the shared one of width %d", width)
		}
	}
	if lists := len(b.la.parent); lists != 41 {
		t.Fatalf("40 attributes, caps 1/1: %d lists, want 41", lists)
	}
}

// TestPipelineSchemasShareLattice: two relations of one width, with
// different names and different data, share one lattice. Fifty runs of each
// from concurrent goroutines must each equal that relation's sequential
// answer — ODs, order and counters — and leave the shared lattice as it was,
// byte for byte: a run writes only its own block.
func TestPipelineSchemasShareLattice(t *testing.T) {
	dates, opts := dateDim(t)
	rng := rand.New(rand.NewSource(31))
	other := core.RandRelation(rng, core.L("z6", "z5", "z4", "z3", "z2", "z1", "z0"), 300, 4)
	rels := []*core.Relation{dates, other}
	want := make([]*PipelineResult, len(rels))
	for i, r := range rels {
		res, err := Pipeline(context.Background(), r, PipelineOptions{Options: opts, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	la := sharedLattices[7].Load()
	before := lattice{pos: slices.Clone(la.pos), off: slices.Clone(la.off), parent: slices.Clone(la.parent), start: slices.Clone(la.start)}

	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < 2*50; i += 4 {
				res, err := Pipeline(context.Background(), rels[i%2], PipelineOptions{Options: opts, Workers: 2})
				if err != nil {
					t.Error(err)
					return
				}
				if w := want[i%2]; res.Stats != w.Stats || !slices.EqualFunc(res.ODs, w.ODs, core.OD.Equal) {
					t.Errorf("run %d over %v: %+v %v, the sequential answer %+v %v", i, rels[i%2].Attrs(), res.Stats, res.ODs, w.Stats, w.ODs)
					return
				}
			}
		}()
	}
	wg.Wait()
	if now := sharedLattices[7].Load(); now != la {
		t.Fatal("runs within the shared lattice's caps replaced it")
	}
	if !slices.Equal(la.pos, before.pos) || !slices.Equal(la.off, before.off) ||
		!slices.Equal(la.parent, before.parent) || !slices.Equal(la.start, before.start) {
		t.Fatal("the runs wrote the shared lattice")
	}
}

// TestCheckSize: the attribute guard and the candidate-space bound refuse
// before anything is enumerated, and bounds beyond the schema's width cost
// nothing.
func TestCheckSize(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
		opts Options
		ok   bool
	}{
		{"defaults, 7 attributes", 7, Options{}, true},
		{"defaults, 8 attributes", 8, Options{}, false},
		{"the benchmark's date dimension", 7, Options{MaxLHS: 2, MaxRHS: 3}, true},
		{"7 attributes, full permutations both sides", 7, Options{MaxLHS: 7, MaxRHS: 7}, false},
		{"bounds far past a 3-attribute schema", 3, Options{MaxLHS: 1 << 40, MaxRHS: 1 << 40}, true},
		{"1,000 attributes, pairs", 1000, Options{MaxLHS: 2, MaxRHS: 2, MaxAttrs: 1000}, false},
	} {
		if err := c.opts.CheckSize(c.n); (err == nil) != c.ok {
			t.Errorf("%s: CheckSize = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	r := core.MustRelation(core.L("A", "B"))
	if err := r.AddIntRow(1, 2); err != nil {
		t.Fatal(err)
	}
	res, err := Pipeline(context.Background(), r, PipelineOptions{Options: Options{MaxLHS: 500, MaxRHS: 500}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates != 14 || res.Stats.Levels != 1000 {
		t.Errorf("2 attributes, bounds 500/500: %+v", res.Stats)
	}
}
