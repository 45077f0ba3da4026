package core

import "math/rand"

// RandRelation builds a random relation over the given attributes with rows
// drawn uniformly from {0, …, domain-1} per column. Small domains make
// coincidental ties (and hence interesting OD interactions) likely, which is
// what property tests want.
func RandRelation(rng *rand.Rand, attrs List, rows, domain int) *Relation {
	r, err := NewRelationRows(attrs, rows, func(_ int, vals []Value) error {
		for j := range vals {
			vals[j] = Int(int64(rng.Intn(domain)))
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return r
}

// RandList builds a random attribute list of length up to maxLen drawn from
// the given universe, possibly with repeats.
func RandList(rng *rand.Rand, universe List, maxLen int) List {
	if len(universe) == 0 || maxLen <= 0 {
		return nil
	}
	n := rng.Intn(maxLen + 1)
	out := make(List, n)
	for i := range out {
		out[i] = universe[rng.Intn(len(universe))]
	}
	return out
}

// RandOD builds a random OD over the universe with sides of length up to
// maxLen.
func RandOD(rng *rand.Rand, universe List, maxLen int) OD {
	return OD{LHS: RandList(rng, universe, maxLen), RHS: RandList(rng, universe, maxLen)}
}

// RandPattern builds a random two-row comparison pattern over the universe.
func RandPattern(rng *rand.Rand, universe List) *Pattern {
	p := MustPattern(universe)
	for i := range p.signs {
		p.signs[i] = Sign(rng.Intn(3) - 1)
	}
	return p
}
