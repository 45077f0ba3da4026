package discover

import (
	"sync"

	"odlib/internal/core"
)

// maxTableAttrs is the widest schema whose accepted set Pipeline keeps as a
// model table; wider relations prune through a catalog. The table's planes
// grow as 3ⁿ while the prover's search tracks the question, so the two cross.
// Measured on the 1,826-day date dimension plus 1–4 uniform random columns,
// MaxLHS 2 / MaxRHS 2, one pipeline run in process (go test -bench, 2 CPUs):
//
//	attributes      8      9     10     11
//	catalog, ms  10.2   12.5   17.4   18.9
//	table, ms     3.4    6.6   14.7   33.9
//
// Nine is the last width at which the table wins by about a factor of two,
// and every relation the default MaxAttrs guard (7) admits is below it.
const maxTableAttrs = 9

// modelTable is the theory of the accepted set, kept as its models. ODs are
// two-tuple-local (Definition 4), so M ⊨ X ↦ Y iff no two-row relation
// satisfies M and falsifies X ↦ Y, and a two-row relation is, up to order
// isomorphism, one sign from {<, =, >} per attribute — internal/prover's
// search space, restated in its package comment. For n attributes the 3ⁿ sign
// vectors are bit positions (attribute a is base-3 digit a: 0 <, 1 =, 2 >)
// and a set of them is a plane of ⌈3ⁿ/64⌉ words. Where the prover searches
// the space once per question, the table holds the plane of patterns that
// satisfy every accepted OD and answers a question with one pass of ANDs.
//
// alive is closed under row swap: accept clears an OD's falsifiers in both
// row orders, so a question needs testing in one order only. Bits at and past
// 3ⁿ are zero in alive, and arbitrary in any plane not yet masked by it.
//
// A table is not synchronized. Pipeline's workers read it during a level and
// the coordinating goroutine alone writes it, at the commit barrier — the
// discipline lattice.refuted follows.
type modelTable struct {
	pos    map[core.Attribute]uint8
	lt, eq [][]uint64 // per attribute: the patterns where row 1 is below / ties row 2; shared, never written
	alive  []uint64   // the patterns satisfying every accepted OD
}

// newModelTable builds the table of the empty theory over the schema: every
// sign vector alive. Only alive is the table's own; the sign planes are the
// width's.
func newModelTable(attrs core.List) *modelTable {
	sp := planesOf(len(attrs))
	t := &modelTable{pos: make(map[core.Attribute]uint8, len(attrs)), lt: sp.lt, eq: sp.eq}
	for a, name := range attrs {
		t.pos[name] = uint8(a)
	}
	t.alive = make([]uint64, (sp.patterns+63)/64)
	for w := range t.alive {
		t.alive[w] = ^uint64(0)
	}
	if tail := sp.patterns % 64; tail != 0 {
		t.alive[len(t.alive)-1] = 1<<tail - 1
	}
	return t
}

// signPlanes are the lt and eq planes of every attribute of an n-attribute
// schema. They depend on n alone, so each width's are built once, on first
// use, and shared read-only by every table of that width, concurrent runs
// included.
type signPlanes struct {
	patterns int // 3ⁿ
	lt, eq   [][]uint64
}

var sharedPlanes [maxTableAttrs + 1]struct {
	once sync.Once
	sp   *signPlanes
}

// planesOf returns the sign planes of an n-attribute schema, n at most
// maxTableAttrs.
func planesOf(n int) *signPlanes {
	e := &sharedPlanes[n]
	e.once.Do(func() { e.sp = buildPlanes(n) })
	return e.sp
}

// buildPlanes enumerates the 3ⁿ sign vectors, attribute a as base-3 digit a.
func buildPlanes(n int) *signPlanes {
	patterns := 1
	for range n {
		patterns *= 3
	}
	words := (patterns + 63) / 64
	planes := make([]uint64, 2*n*words)
	sp := &signPlanes{patterns: patterns, lt: make([][]uint64, n), eq: make([][]uint64, n)}
	for a := range n {
		sp.lt[a], sp.eq[a] = planes[2*a*words:][:words], planes[(2*a+1)*words:][:words]
	}
	for p, digits := 0, make([]uint8, n); p < patterns; p++ {
		w, bit := p>>6, uint64(1)<<(p&63)
		for a, d := range digits {
			switch d {
			case 0:
				sp.lt[a][w] |= bit
			case 1:
				sp.eq[a][w] |= bit
			}
		}
		for a := 0; a < n; a++ { // digits = p+1 in base 3
			if digits[a]++; digits[a] < 3 {
				break
			}
			digits[a] = 0
		}
	}
	return sp
}

// positions resolves a list to schema positions, the form the planes are
// indexed by. Repeated attributes are fine: a repeat never breaks a tie its
// first occurrence left.
func (t *modelTable) positions(l core.List) []uint8 {
	out := make([]uint8, len(l))
	for i, a := range l {
		out[i] = t.pos[a]
	}
	return out
}

// fold compares the two rows lexicographically on the list, one word of
// patterns at a time, within the patterns of in: lt are those ordering row 1
// strictly below row 2, eq those tying. The empty list ties everywhere.
func (t *modelTable) fold(w int, in uint64, list []uint8) (lt, eq uint64) {
	eq = in
	for _, a := range list {
		lt |= eq & t.lt[a][w]
		eq &= t.eq[a][w]
	}
	return lt, eq
}

// accept adds an OD to the theory: the patterns that falsify it die. A pattern
// falsifies X ↦ Y as (row 1, row 2) when row 1 ≤ row 2 on X but not on Y, and
// as (row 2, row 1) when its row swap does — row 1 < row 2 on Y but not on X.
func (t *modelTable) accept(od core.OD) {
	x, y := t.positions(od.LHS), t.positions(od.RHS)
	for w, alive := range t.alive {
		if alive == 0 {
			continue
		}
		ltx, eqx := t.fold(w, alive, x)
		lty, eqy := t.fold(w, alive, y)
		t.alive[w] = alive &^ ((ltx|eqx)&^(lty|eqy) | lty&^ltx)
	}
}

// under returns the models that order row 1 at or below row 2 on the list —
// everything a question with this left-hand side has to find ordered by its
// right-hand side. One context group folds it once and asks orders per
// candidate.
func (t *modelTable) under(lhs []uint8) []uint64 {
	le := make([]uint64, len(t.alive))
	for w, alive := range t.alive {
		if alive != 0 {
			lt, eq := t.fold(w, alive, lhs)
			le[w] = lt | eq
		}
	}
	return le
}

// orders reports whether every pattern of the plane orders row 1 at or below
// row 2 on the list: with le = under(X), whether the accepted set implies
// X ↦ Y.
func (t *modelTable) orders(le []uint64, rhs []uint8) bool {
	for w, in := range le {
		if in == 0 {
			continue
		}
		if lt, eq := t.fold(w, in, rhs); in&^(lt|eq) != 0 {
			return false
		}
	}
	return true
}

// implies reports whether the accepted set implies the OD.
func (t *modelTable) implies(od core.OD) bool {
	return t.orders(t.under(t.positions(od.LHS)), t.positions(od.RHS))
}
