package fd

import (
	"fmt"
	"sort"

	"odlib/internal/core"
)

// FD is a functional dependency LHS → RHS between attribute sets.
type FD struct {
	LHS, RHS core.AttrSet
}

// New builds the FD {lhs} → {rhs} from attribute lists.
func New(lhs, rhs core.List) FD {
	return FD{LHS: lhs.Set(), RHS: rhs.Set()}
}

// String renders the FD as "{A, B} -> {C}".
func (f FD) String() string { return f.LHS.String() + " -> " + f.RHS.String() }

// OD returns the FD as the order dependency it is (Theorem 13): X ↦ XY, with
// each side listed in sorted order — by Permutation (Theorem 14) every list
// order of the two sets states the same dependency.
func (f FD) OD() core.OD {
	x := f.LHS.Sorted()
	return core.NewOD(x, x.Concat(f.RHS.Sorted()))
}

// FromOD returns the FD implied by an OD (Lemma 1): set(X) → set(Y).
func FromOD(od core.OD) FD { return New(od.LHS, od.RHS) }

// FromODs maps a set of ODs to their implied FDs.
func FromODs(ods []core.OD) []FD {
	out := make([]FD, len(ods))
	for i, od := range ods {
		out[i] = FromOD(od)
	}
	return out
}

// Closure computes the attribute-set closure attrs⁺ under the given FDs: the
// largest set of attributes functionally determined by attrs. It runs the
// standard fixpoint algorithm.
func Closure(attrs core.AttrSet, fds []FD) core.AttrSet {
	closure := attrs.Clone()
	applied := make([]bool, len(fds))
	for changed := true; changed; {
		changed = false
		for i, f := range fds {
			if applied[i] || !f.LHS.SubsetOf(closure) {
				continue
			}
			applied[i] = true
			for a := range f.RHS {
				if !closure.Contains(a) {
					closure.Add(a)
					changed = true
				}
			}
		}
	}
	return closure
}

// Implies reports whether the FD set logically implies f, by the closure
// test f.RHS ⊆ f.LHS⁺.
func Implies(fds []FD, f FD) bool {
	return f.RHS.SubsetOf(Closure(f.LHS, fds))
}

// Equivalent reports whether two FD sets imply each other.
func Equivalent(a, b []FD) bool {
	for _, f := range a {
		if !Implies(b, f) {
			return false
		}
	}
	for _, f := range b {
		if !Implies(a, f) {
			return false
		}
	}
	return true
}

// MinimalCover returns a minimal cover of the FD set: singleton right-hand
// sides, no redundant left-hand attributes, no redundant dependencies. The
// result is equivalent to the input.
func MinimalCover(fds []FD) []FD {
	// 1. Split right-hand sides into singletons and drop trivial FDs.
	var work []FD
	for _, f := range fds {
		for a := range f.RHS {
			if f.LHS.Contains(a) {
				continue
			}
			work = append(work, FD{LHS: f.LHS.Clone(), RHS: core.NewAttrSet(a)})
		}
	}
	sort.Slice(work, func(i, j int) bool { return work[i].String() < work[j].String() })
	// 2. Remove extraneous left-hand attributes.
	for i := range work {
		for _, a := range work[i].LHS.Sorted() {
			reduced := work[i].LHS.Clone()
			delete(reduced, a)
			if work[i].RHS.SubsetOf(Closure(reduced, work)) {
				work[i] = FD{LHS: reduced, RHS: work[i].RHS}
			}
		}
	}
	// 3. Remove redundant dependencies.
	out := make([]FD, 0, len(work))
	for i := range work {
		rest := make([]FD, 0, len(work)-1)
		rest = append(rest, out...)
		rest = append(rest, work[i+1:]...)
		if !Implies(rest, work[i]) {
			out = append(out, work[i])
		}
	}
	return out
}

// Satisfies reports whether relation r satisfies the FD, returning a witness
// pair of row indices when it does not.
func Satisfies(r *core.Relation, f FD) (bool, [2]int, error) {
	lhs := f.LHS.Sorted()
	rhs := f.RHS.Sorted()
	for _, a := range lhs.Concat(rhs) {
		if !r.HasAttr(a) {
			return false, [2]int{}, fmt.Errorf("fd: attribute %s not in schema %v", a, r.Attrs())
		}
	}
	idx, err := r.SortedIndexOn(lhs)
	if err != nil {
		return false, [2]int{}, err
	}
	for k := 0; k+1 < len(idx); k++ {
		s, t := idx[k], idx[k+1]
		eqL, err := r.EqOn(s, t, lhs)
		if err != nil {
			return false, [2]int{}, err
		}
		if !eqL {
			continue
		}
		eqR, err := r.EqOn(s, t, rhs)
		if err != nil {
			return false, [2]int{}, err
		}
		if !eqR {
			return false, [2]int{s, t}, nil
		}
	}
	return true, [2]int{}, nil
}
