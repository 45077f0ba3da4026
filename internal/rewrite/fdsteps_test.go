package rewrite

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"odlib/internal/core"
	"odlib/internal/fd"
	"odlib/internal/prover"
)

// armstrongRef is the rewriter as it was while FDs were a second dependency
// type: every FD step decided by the Armstrong closure over the explicit FDs
// plus each OD's implied FD (Lemma 1), only the OD step by the prover. It is
// kept here as the reference the one-Oracle sweeps must equal.
type armstrongRef struct {
	fds []fd.FD
	p   *prover.Prover
}

func newArmstrongRef(fds []fd.FD, c *Constraints) armstrongRef {
	return armstrongRef{fds: append(fd.FromODs(c.ODs), fds...), p: prover.New(c.ODs)}
}

func (r armstrongRef) determines(x, y core.List) bool {
	return fd.Implies(r.fds, fd.New(x, y))
}

func (r armstrongRef) reduceOrderFD(order core.List) Result {
	res := Result{Input: order, Reduced: order.Normalize()}
	for i := len(res.Reduced) - 1; i >= 0; i-- {
		a, prefix := res.Reduced[i], res.Reduced.Prefix(i)
		if r.determines(prefix, core.List{a}) {
			res.Steps = append(res.Steps, Step{Seg: core.List{a}, Pos: i, Rule: "fd-eliminate", By: prefix.Clone()})
			res.Reduced = prefix.Concat(res.Reduced.Suffix(i + 1))
		}
	}
	return res
}

func (r armstrongRef) reduceOrder(t *testing.T, order core.List) Result {
	res := Result{Input: order, Reduced: order.Normalize()}
	for changed := true; changed; {
		changed = false
		for i := len(res.Reduced) - 1; i >= 0 && !changed; i-- {
			a, prefix := res.Reduced[i], res.Reduced.Prefix(i)
			if r.determines(prefix, core.List{a}) {
				res.Steps = append(res.Steps, Step{Seg: core.List{a}, Pos: i, Rule: "fd-eliminate", By: prefix.Clone()})
				res.Reduced = prefix.Concat(res.Reduced.Suffix(i + 1))
				changed = true
				break
			}
			for l := 1; i+l <= len(res.Reduced) && !changed; l++ {
				seg, rest := res.Reduced[i:i+l], res.Reduced.Suffix(i+l)
				for j := 1; j <= len(rest); j++ {
					post := rest.Prefix(j)
					ok, err := r.p.Implies(core.NewOD(post, seg))
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						res.Steps = append(res.Steps, Step{Seg: seg.Clone(), Pos: i, Rule: "od-left-eliminate", By: post.Clone()})
						res.Reduced = prefix.Concat(rest)
						changed = true
						break
					}
				}
			}
		}
	}
	return res
}

func (r armstrongRef) reduceGroupBy(group core.List) Result {
	res := Result{Input: group, Reduced: group.Normalize()}
	for changed := true; changed; {
		changed = false
		for i := len(res.Reduced) - 1; i >= 0; i-- {
			a := res.Reduced[i]
			rest := res.Reduced.Prefix(i).Concat(res.Reduced.Suffix(i + 1))
			if r.determines(rest, core.List{a}) {
				res.Steps = append(res.Steps, Step{Seg: core.List{a}, Pos: i, Rule: "fd-eliminate", By: rest.Clone()})
				res.Reduced = rest
				changed = true
				break
			}
		}
	}
	return res
}

func (r armstrongRef) groupBySatisfiedBy(order, group core.List) bool {
	for i := 0; i <= len(order); i++ {
		if p := order.Prefix(i); r.determines(p, group) && r.determines(group, p) {
			return true
		}
	}
	return false
}

// TestFDStepsMatchArmstrongClosure is Theorem 13 as a differential: asking
// "does set(X) determine a?" as the OD question X ↦ Xa of the one Oracle
// decides exactly what the Armstrong closure decides. On seeded random
// (ODs, explicit FDs, list) triples every reduction equals the reference's,
// field for field.
func TestFDStepsMatchArmstrongClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	universe := L("A", "B", "C", "D", "E", "F")
	ctx := context.Background()
	same := func(what string, got Result, err error, want Result) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !got.Input.Equal(want.Input) || !got.Reduced.Equal(want.Reduced) || !reflect.DeepEqual(got.Steps, want.Steps) {
			t.Fatalf("%s: reduced to %v by %+v, the Armstrong reference to %v by %+v",
				what, got.Reduced, got.Steps, want.Reduced, want.Steps)
		}
	}
	var fdSteps, odSteps, satisfied int
	const triples = 600
	for i := 0; i < triples; i++ {
		var ods []core.OD
		for n := rng.Intn(5); n > 0; n-- {
			ods = append(ods, core.RandOD(rng, universe, 2))
		}
		var fds []fd.FD
		for n := rng.Intn(3); n > 0; n-- {
			fds = append(fds, fd.New(core.RandList(rng, universe, 2), core.RandList(rng, universe, 2)))
		}
		list := append(core.RandList(rng, universe, 5), universe[rng.Intn(len(universe))])
		group := core.RandList(rng, universe, 3)

		c := NewConstraints(fds, ods)
		if len(c.ODs) != len(ods)+len(fds) {
			t.Fatalf("NewConstraints holds %d ODs for %d ODs and %d FDs", len(c.ODs), len(ods), len(fds))
		}
		ref := newArmstrongRef(fds, c)
		where := func(what string) string {
			return fmt.Sprintf("%s of %v under %s and %v", what, list, core.ODsString(ods), fds)
		}

		got, err := ReduceOrderCtx(ctx, list, c)
		want := ref.reduceOrder(t, list)
		same(where("ReduceOrder"), got, err, want)
		for _, s := range want.Steps {
			if s.Rule == "fd-eliminate" {
				fdSteps++
			} else {
				odSteps++
			}
		}
		got, err = ReduceOrderFD(ctx, list, c)
		same(where("ReduceOrderFD"), got, err, ref.reduceOrderFD(list))
		got, err = ReduceGroupBy(ctx, list, c)
		want = ref.reduceGroupBy(list)
		same(where("ReduceGroupBy"), got, err, want)
		fdSteps += len(want.Steps)

		ok, err := GroupBySatisfiedBy(ctx, list, group, c)
		wantOK := ref.groupBySatisfiedBy(list, group)
		if err != nil || ok != wantOK {
			t.Fatalf("%s by %v = %v (%v), the Armstrong reference says %v", where("GroupBySatisfiedBy"), group, ok, err, wantOK)
		}
		if ok && len(group) > 0 {
			satisfied++
		}
	}
	if fdSteps < triples/2 || odSteps < triples/50 || satisfied < triples/20 {
		t.Fatalf("%d FD steps, %d OD steps and %d satisfied groups over %d triples: the differential is too thin",
			fdSteps, odSteps, satisfied, triples)
	}
}
