package fd

import (
	"math/rand"
	"testing"

	"odlib/internal/core"
)

func L(attrs ...string) core.List { return core.L(attrs...) }

func TestClosure(t *testing.T) {
	fds := []FD{
		New(L("A"), L("B")),
		New(L("B"), L("C")),
		New(L("C", "D"), L("E")),
	}
	tests := []struct {
		in   core.List
		want core.List
	}{
		{L("A"), L("A", "B", "C")},
		{L("A", "D"), L("A", "B", "C", "D", "E")},
		{L("D"), L("D")},
		{nil, nil},
	}
	for _, tc := range tests {
		got := Closure(tc.in.Set(), fds)
		if !got.Equal(tc.want.Set()) {
			t.Errorf("Closure(%v) = %v, want %v", tc.in, got, tc.want.Set())
		}
	}
}

func TestImplies(t *testing.T) {
	fds := []FD{
		New(L("A"), L("B")),
		New(L("B"), L("C")),
	}
	if !Implies(fds, New(L("A"), L("C"))) {
		t.Error("transitivity should be implied")
	}
	if !Implies(fds, New(L("A", "D"), L("B"))) {
		t.Error("augmentation should be implied")
	}
	if !Implies(fds, New(L("C"), L("C"))) {
		t.Error("reflexivity should be implied")
	}
	if Implies(fds, New(L("C"), L("A"))) {
		t.Error("reverse should not be implied")
	}
	if Implies(nil, New(L("A"), L("B"))) {
		t.Error("nothing follows from the empty set but trivialities")
	}
	if !Implies(nil, New(L("A", "B"), L("A"))) {
		t.Error("trivial FD follows from the empty set")
	}
}

func TestFDBasics(t *testing.T) {
	f := New(L("A", "B"), L("C"))
	if f.String() != "{A, B} -> {C}" {
		t.Errorf("String = %q", f.String())
	}
	if got := New(L("B", "A"), L("D", "C")).OD(); got.String() != "[A, B] -> [A, B, C, D]" {
		t.Errorf("OD = %v", got)
	}
	od := core.NewOD(L("B", "A"), L("C", "C"))
	if got := FromOD(od); !got.LHS.Equal(core.NewAttrSet("A", "B")) || !got.RHS.Equal(core.NewAttrSet("C")) {
		t.Errorf("FromOD = %v", got)
	}
	if got := FromODs([]core.OD{od}); len(got) != 1 {
		t.Errorf("FromODs = %v", got)
	}
}

func TestSatisfies(t *testing.T) {
	r := core.MustRelation(L("A", "B"))
	for _, row := range [][]int64{{1, 1}, {1, 1}, {2, 5}} {
		if err := r.AddIntRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	ok, _, err := Satisfies(r, New(L("A"), L("B")))
	if err != nil || !ok {
		t.Errorf("FD should hold: %v %v", ok, err)
	}
	if err := r.AddIntRow(2, 6); err != nil {
		t.Fatal(err)
	}
	ok, w, err := Satisfies(r, New(L("A"), L("B")))
	if err != nil || ok {
		t.Errorf("FD should fail: %v %v", ok, err)
	}
	va, _ := r.Value(w[0], "A")
	vb, _ := r.Value(w[1], "A")
	if !va.Equal(vb) {
		t.Errorf("witness rows should agree on A: %v %v", va, vb)
	}
	if _, _, err := Satisfies(r, New(L("Z"), L("A"))); err == nil {
		t.Error("unknown attribute should error")
	}
}

// TestFDODCorrespondence is Theorem 13 checked semantically: a relation
// satisfies FD set(X) → set(Y) iff it satisfies the OD X ↦ XY, for all list
// orderings.
func TestFDODCorrespondence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	universe := L("A", "B", "C")
	for i := 0; i < 300; i++ {
		r := core.RandRelation(rng, universe, 6, 2)
		x := core.RandList(rng, universe, 2)
		y := core.RandList(rng, universe, 2)
		fdHolds, _, err := Satisfies(r, New(x, y))
		if err != nil {
			t.Fatal(err)
		}
		odHolds, _, err := r.Satisfies(core.NewOD(x, x.Concat(y)))
		if err != nil {
			t.Fatal(err)
		}
		sortedHolds, _, err := r.Satisfies(New(x, y).OD())
		if err != nil {
			t.Fatal(err)
		}
		if fdHolds != odHolds || fdHolds != sortedHolds {
			t.Fatalf("Theorem 13 violated for X=%v Y=%v on\n%s", x, y, r)
		}
	}
}
