package discover

import (
	"math/rand"
	"testing"

	"odlib/internal/core"
	"odlib/internal/prover"
	"odlib/paper/datetime"
)

func L(attrs ...string) core.List { return core.L(attrs...) }

// TestConstants runs two fixed relations — one constant column beside a
// varying one, and two constant columns — through the reference and both of
// the pipeline's pruning paths, KeepRedundant both ways: each side must
// report the constants once, in name order, and list no OD twice.
func TestConstants(t *testing.T) {
	oneConstant := core.MustRelation(L("A", "B"))
	allConstant := core.MustRelation(L("A", "B"))
	for _, row := range [][2]int64{{1, 5}, {1, 6}} {
		if err := oneConstant.AddIntRow(row[0], row[1]); err != nil {
			t.Fatal(err)
		}
		if err := allConstant.AddIntRow(row[0], 7); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		r    *core.Relation
		want core.List
	}{{"one constant", oneConstant, L("A")}, {"all constant", allConstant, L("A", "B")}} {
		for _, keep := range []bool{false, true} {
			opts := Options{MaxLHS: 2, MaxRHS: 2, KeepRedundant: keep}
			if got := checkEqualsDiscover(t, c.name, c.r, opts, 1).Constants; !got.Equal(c.want) {
				t.Fatalf("%s: constants %v, want %v", c.name, got, c.want)
			}
		}
	}
}

func TestCompatiblePairs(t *testing.T) {
	r := core.MustRelation(L("A", "B", "C"))
	r.AddIntRow(1, 10, 5)
	r.AddIntRow(2, 20, 3) // C swaps against A and B
	pairs, err := CompatiblePairs(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0] != [2]core.Attribute{"A", "B"} {
		t.Errorf("CompatiblePairs = %v", pairs)
	}
}

// TestDiscoverCalendar mines the real calendar and must find the date
// hierarchy's fundamental dependencies.
func TestDiscoverCalendar(t *testing.T) {
	cal, err := datetime.Calendar(2000, 500)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cal.Project(L("date", "year", "quarter", "month"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Discover(sub, Options{MaxLHS: 1, MaxRHS: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := prover.New(res.ODs)
	for _, want := range []core.OD{
		core.NewOD(L("date"), L("year", "month")),
		core.NewOD(L("month"), L("quarter")),
		core.NewOD(L("date"), L("year", "quarter")),
	} {
		ok, err := p.Implies(want)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("discovered set should imply %s; got %s", want, core.ODsString(res.ODs))
		}
	}
	// Nothing false discovered: every OD in the result holds on the data.
	for _, od := range res.ODs {
		ok, v, err := sub.Satisfies(od)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("discovered OD is false on data: %v", v)
		}
	}
}

// TestDiscoverCompleteWithinBounds: within the enumerated candidate space,
// the minimal discovered set implies exactly the ODs the data satisfies.
func TestDiscoverCompleteWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	universe := L("A", "B", "C")
	for trial := 0; trial < 20; trial++ {
		r := core.RandRelation(rng, universe, 6, 2)
		res, err := Discover(r, Options{MaxLHS: 2, MaxRHS: 2})
		if err != nil {
			t.Fatal(err)
		}
		p := prover.New(res.ODs)
		for _, lhs := range enumerateLists(universe, 2) {
			for _, rhs := range enumerateLists(universe, 2) {
				od := core.NewOD(lhs, rhs)
				holds, _, err := r.Satisfies(od)
				if err != nil {
					t.Fatal(err)
				}
				implied, err := p.Implies(od)
				if err != nil {
					t.Fatal(err)
				}
				if holds != implied {
					t.Fatalf("discovery incomplete for %s: holds=%v implied=%v (found %s)\n%s",
						od, holds, implied, core.ODsString(res.ODs), r)
				}
			}
		}
	}
}

// TestDiscoverMinimality: no discovered OD is implied by the others.
func TestDiscoverMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	universe := L("A", "B", "C")
	r := core.RandRelation(rng, universe, 8, 2)
	res, err := Discover(r, Options{MaxLHS: 2, MaxRHS: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.ODs {
		rest := append(append([]core.OD{}, res.ODs[:i]...), res.ODs[i+1:]...)
		implied, err := prover.New(rest).Implies(res.ODs[i])
		if err != nil {
			t.Fatal(err)
		}
		if implied {
			t.Errorf("redundant OD in minimal result: %s", res.ODs[i])
		}
	}
	// KeepRedundant yields at least as many ODs.
	res2, err := Discover(r, Options{MaxLHS: 2, MaxRHS: 2, KeepRedundant: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.ODs) < len(res.ODs) {
		t.Errorf("redundant mode found fewer ODs: %d < %d", len(res2.ODs), len(res.ODs))
	}
	if res.Candidates == 0 || res.DataChecks == 0 || res.DataChecks > res.Candidates {
		t.Errorf("counters wrong: %+v", res)
	}
}

func TestDiscoverGuard(t *testing.T) {
	r := core.MustRelation(L("A", "B", "C", "D", "E", "F", "G", "H"))
	if _, err := Discover(r, Options{}); err == nil {
		t.Error("oversized schema must fail")
	}
}
