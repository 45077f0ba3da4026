package discover

import (
	"context"
	"testing"

	"odlib/internal/core"
)

// TestLatticeIDScheme: ids are ordered by length then schema position, id 0
// is the empty list, parent names the immediate prefix, and the lists
// admissible on either side are a prefix of the id space.
func TestLatticeIDScheme(t *testing.T) {
	la := newLattice(core.L("A", "B", "C"), 1, 2)
	want := []core.List{
		nil,
		core.L("A"), core.L("B"), core.L("C"),
		core.L("A", "B"), core.L("A", "C"), core.L("B", "A"), core.L("B", "C"), core.L("C", "A"), core.L("C", "B"),
	}
	if len(la.lists) != len(want) {
		t.Fatalf("%d lists, want %d: %v", len(la.lists), len(want), la.lists)
	}
	for id, l := range want {
		if !la.lists[id].Equal(l) {
			t.Errorf("id %d = %v, want %v", id, la.lists[id], l)
		}
		if id > 0 && !la.lists[la.parent[id]].Equal(l.Prefix(len(l)-1)) {
			t.Errorf("parent of %v = %v", l, la.lists[la.parent[id]])
		}
	}
	if la.nRHS != 10 || len(la.refuted) != 4*10 {
		t.Errorf("nRHS = %d, table of %d slots; want 10 and 4 x 10", la.nRHS, len(la.refuted))
	}
	// A side bound past the schema's width adds no list.
	if wide := newLattice(core.L("A", "B"), 9, 9); len(wide.lists) != 5 || len(wide.refuted) != 25 {
		t.Errorf("2 attributes, bounds 9/9: %d lists, %d slots; want 5 and 25", len(wide.lists), len(wide.refuted))
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
