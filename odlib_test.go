package odlib

import (
	"fmt"
	"sync"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	constraints, err := ParseConstraints("[month] -> [quarter]")
	if err != nil {
		t.Fatal(err)
	}
	r := NewReasoner(constraints)

	ok, err := r.Equivalent(L("year", "quarter", "month"), L("year", "month"))
	if err != nil || !ok {
		t.Errorf("Example 1 equivalence should hold: %v %v", ok, err)
	}
	reduced, err := ReduceOrderBy(L("year", "quarter", "month"), constraints)
	if err != nil || !reduced.Equal(L("year", "month")) {
		t.Errorf("ReduceOrderBy = %v, %v", reduced, err)
	}
	eq, err := OrderEquivalent(L("year", "quarter", "month"), L("year", "month"), constraints)
	if err != nil || !eq {
		t.Errorf("OrderEquivalent = %v, %v", eq, err)
	}

	// Refutation with a counterexample.
	od, err := ParseOD("[quarter] -> [month]")
	if err != nil {
		t.Fatal(err)
	}
	implied, err := r.Implies(od)
	if err != nil || implied {
		t.Errorf("reverse must not be implied: %v %v", implied, err)
	}
	cx, err := r.Counterexample(od)
	if err != nil || cx == nil {
		t.Fatalf("expected counterexample: %v", err)
	}
	okM, _, err := cx.SatisfiesAll(constraints)
	if err != nil || !okM {
		t.Error("counterexample must satisfy the constraints")
	}
	okOD, _, err := cx.Satisfies(od)
	if err != nil || okOD {
		t.Error("counterexample must falsify the candidate")
	}
	// Implied statements have no counterexample.
	cx2, err := r.Counterexample(NewOD(L("month"), L("quarter")))
	if err != nil || cx2 != nil {
		t.Errorf("implied OD must have no counterexample: %v %v", cx2, err)
	}
}

func TestFacadeCatalog(t *testing.T) {
	constraints, err := ParseConstraints("[A] -> [B]; [B] -> [C]")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog(constraints...)
	ok, err := c.Implies(NewOD(L("A"), L("C")))
	if err != nil || !ok {
		t.Errorf("catalog should imply the transitive [A] -> [C]: %v %v", ok, err)
	}
	res, err := c.ReduceOrder(L("A", "B", "C"))
	if err != nil || !res.Reduced.Equal(L("A")) {
		t.Errorf("catalog ReduceOrder = %v, %v; want [A]", res.Reduced, err)
	}
	if c.Remove(NewOD(L("B"), L("C"))) != 1 {
		t.Error("Remove should withdraw the declared OD")
	}
	ok, err = c.Implies(NewOD(L("A"), L("C")))
	if err != nil || ok {
		t.Errorf("catalog must forget the derived OD after removal: %v %v", ok, err)
	}
}

func TestFacadeArmstrong(t *testing.T) {
	constraints, err := ParseConstraints("[A] -> [B]")
	if err != nil {
		t.Fatal(err)
	}
	table, err := ArmstrongRelation(constraints, L("A", "B", "C"))
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := table.SatisfiesAll(constraints)
	if err != nil || !ok {
		t.Error("Armstrong relation must satisfy the constraints")
	}
	holds, _, err := table.Satisfies(NewOD(L("B"), L("A")))
	if err != nil || holds {
		t.Error("Armstrong relation must falsify the non-implied reverse")
	}
}

func TestFacadeDiscoverAndProve(t *testing.T) {
	rel, err := NewRelation(L("A", "B"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		if err := rel.AddIntRow(i, i*2); err != nil {
			t.Fatal(err)
		}
	}
	ods, err := DiscoverODs(rel)
	if err != nil {
		t.Fatal(err)
	}
	found := NewReasoner(ods)
	ok, err := found.Equivalent(L("A"), L("B"))
	if err != nil || !ok {
		t.Errorf("discovery should find A <-> B: %v %v", ok, err)
	}

	asm := []OD{NewOD(L("A"), L("B")), NewOD(L("A"), L("C"))}
	proof, err := Prove(asm, func(b *ProofBuilder) int {
		return b.Union(b.Assume(asm[0]), b.Assume(asm[1]))
	})
	if err != nil {
		t.Fatal(err)
	}
	concl, err := proof.Conclusion()
	if err != nil || !concl.Equal(NewOD(L("A"), L("B", "C"))) {
		t.Errorf("proved %s, err %v", concl, err)
	}
}

// TestReasonerConcurrentUse: one Reasoner shared by 8 goroutines, each
// asking questions the others ask too and questions only it asks, through
// every method of the facade; every answer is checked. Run under -race.
func TestReasonerConcurrentUse(t *testing.T) {
	constraints, err := ParseConstraints("[day] -> [month]; [month] -> [quarter]; [quarter] -> [year]")
	if err != nil {
		t.Fatal(err)
	}
	r := NewReasoner(constraints)
	levels := []string{"day", "month", "quarter", "year"}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := fmt.Sprintf("g%d", g)
			for i, fine := range levels {
				for j, coarse := range levels {
					for _, q := range []OD{
						NewOD(L(fine), L(coarse)),
						NewOD(L(own, fine), L(own, coarse)),
					} {
						want := i <= j // finer levels order coarser ones, never the reverse
						ok, err := r.Implies(q)
						if err != nil || ok != want {
							t.Errorf("goroutine %d: Implies(%s) = %v, %v; want %v", g, q, ok, err, want)
							return
						}
						cx, err := r.Counterexample(q)
						if err != nil || (cx == nil) != want {
							t.Errorf("goroutine %d: Counterexample(%s) = %v, %v; want one: %v", g, q, cx, err, !want)
							return
						}
						if cx != nil {
							if holds, _, err := cx.SatisfiesAll(constraints); err != nil || !holds {
								t.Errorf("goroutine %d: counterexample to %s violates the constraints", g, q)
								return
							}
						}
					}
					eq, err := r.Equivalent(L(fine, coarse), L(coarse, fine))
					if err != nil || !eq {
						// One orders the other, so the two concatenations are
						// interchangeable whichever is finer.
						t.Errorf("goroutine %d: Equivalent(%s, %s) = %v, %v", g, fine, coarse, eq, err)
						return
					}
					oc, err := r.OrderCompatible(L(own, fine), L(own, coarse))
					if err != nil || !oc {
						t.Errorf("goroutine %d: OrderCompatible(%s, %s) = %v, %v", g, fine, coarse, oc, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
