package discover

import (
	"math/bits"
	"sync"

	"odlib/internal/core"
)

// maxTableAttrs is the widest schema whose accepted set Pipeline keeps as a
// model table; wider relations prune through a catalog. A table's shared
// planes grow as 3ⁿ while the prover's search tracks the question, so the
// two cross somewhere. Measured on the 1,826-day date dimension plus 1–4
// uniform random columns of 50 values, MaxLHS 2 / MaxRHS 2, one pipeline run
// in process (go test -bench, 2 CPUs, medians of three alternating runs of
// 20), with tables that re-pack their living patterns:
//
//	attributes      8      9     10     11
//	catalog, ms  11.2   15.3   19.7   24.9
//	table, ms     2.4    4.1    6.9   16.3
//
// Before tables re-packed, the same runs read 2.9, 5.4, 13.1 and 31.0 ms
// and the catalog won at eleven; now the table wins at every width measured,
// by 1.5x at eleven. Nine stays the limit — every relation the default
// MaxAttrs guard (7) admits is below it — and a wider one is a change of its
// own, which pays 3ⁿ-slot shared planes (0.5 MB at eleven) per width.
const maxTableAttrs = 9

// modelTable is the theory of the accepted set, kept as its models. ODs are
// two-tuple-local (Definition 4), so M ⊨ X ↦ Y iff no two-row relation
// satisfies M and falsifies X ↦ Y, and a two-row relation is, up to order
// isomorphism, one sign from {<, =, >} per attribute — internal/prover's
// search space, restated in its package comment. For n attributes the 3ⁿ sign
// vectors are bit positions, slots, and a set of them is a plane of one bit
// per slot. Where the prover searches the space once per question, the table
// holds the plane of patterns that satisfy every accepted OD and answers a
// question with one pass of ANDs over it.
//
// A fresh table reads its width's shared planes, where slot p is the vector
// whose base-3 digit a is attribute a's sign (0 <, 1 =, 2 >): 3ⁿ slots in
// ⌈3ⁿ/64⌉ words, built once per width and never written. Accepting ODs kills
// patterns, and once the living ones fit in 1/repackShrink of the words,
// accept re-packs them into the first slots of planes of the table's own. So
// the shared planes serve a table only until it first re-packs, and every
// fold, question and later accept costs words in proportion to the patterns
// still alive, not to 3ⁿ: on the date dimension the second level's commit
// takes 35 words to 12 and then 4, and the third's to 2, where the run's
// last 65 patterns stay. No verdict depends on where a pattern sits.
//
// alive is closed under row swap: accept clears an OD's falsifiers in both
// row orders, so a question needs testing in one order only. The slots
// numbered slots and above are padding, never alive; their bits are zero in a
// table's own planes and arbitrary in any plane not masked by alive.
//
// A table is not synchronized. Pipeline's workers read it during a level and
// the coordinating goroutine alone writes it, at the commit barrier — the
// discipline a run's refutation table follows. A run's table is part of its
// pooled block (pipeline.go): reset re-aims it at a schema, and the planes it
// re-packs into are two buffers it alternates between, so a warm table
// allocates nothing.
type modelTable struct {
	pos    map[core.Attribute]uint16
	lt, eq [][]uint64 // per attribute: the slots where row 1 is below / ties row 2
	alive  []uint64   // the slots whose pattern satisfies every accepted OD
	slots  int        // the slots that hold a pattern: 3ⁿ, then the living count at the last repack

	own  [2]planeBuf // the table's own planes: alive lives in own[cur], and lt and eq too once re-packed
	cur  int
	x, y []uint16 // the positions of the OD accept or implies is asked about
	le   []uint64 // implies' plane
}

// planeBuf is one block of table-owned planes: lt and eq per attribute, then
// alive, each of the same words.
type planeBuf struct {
	block  []uint64
	lt, eq [][]uint64
}

// cut returns the buffer's planes for n attributes of the given words,
// zeroed.
func (b *planeBuf) cut(n, words int) (lt, eq [][]uint64, alive []uint64) {
	b.block = sized(b.block, (2*n+1)*words)
	clear(b.block)
	b.lt, b.eq = sized(b.lt, n), sized(b.eq, n)
	for a := range n {
		b.lt[a], b.eq[a] = b.block[2*a*words:][:words], b.block[(2*a+1)*words:][:words]
	}
	return b.lt, b.eq, b.block[2*n*words:]
}

// repackShrink is how many times fewer words than the table has the living
// patterns must fit in before accept re-packs them: at 2, a repack at least
// halves every later pass, and the table is re-packed at most log₂ of its
// first word count times.
const repackShrink = 2

// newModelTable builds the table of the empty theory over the schema.
func newModelTable(attrs core.List) *modelTable {
	t := new(modelTable)
	t.reset(attrs)
	return t
}

// reset makes the table that of the empty theory over the schema: every sign
// vector alive. Only alive is the table's own; the sign planes are the
// width's until the first repack.
func (t *modelTable) reset(attrs core.List) {
	sp := planesOf(len(attrs))
	if t.pos == nil {
		t.pos = make(map[core.Attribute]uint16, len(attrs))
	}
	clear(t.pos)
	for a, name := range attrs {
		t.pos[name] = uint16(a)
	}
	t.lt, t.eq, t.slots, t.cur = sp.lt, sp.eq, sp.patterns, 0
	_, _, t.alive = t.own[0].cut(0, (sp.patterns+63)/64)
	for w := range t.alive {
		t.alive[w] = ^uint64(0)
	}
	if tail := sp.patterns % 64; tail != 0 {
		t.alive[len(t.alive)-1] = 1<<tail - 1
	}
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
	sp := &signPlanes{patterns: patterns}
	sp.lt, sp.eq, _ = new(planeBuf).cut(n, (patterns+63)/64)
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

// positions resolves a list to schema positions into dst, the form the
// planes are indexed by. Repeated attributes are fine: a repeat never breaks
// a tie its first occurrence left.
func (t *modelTable) positions(dst []uint16, l core.List) []uint16 {
	dst = dst[:0]
	for _, a := range l {
		dst = append(dst, t.pos[a])
	}
	return dst
}

// fold compares the two rows lexicographically on the list, one word of
// patterns at a time, within the patterns of in: lt are those ordering row 1
// strictly below row 2, eq those tying. The empty list ties everywhere.
func (t *modelTable) fold(w int, in uint64, list []uint16) (lt, eq uint64) {
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
// When the survivors fit in 1/repackShrink of the words, they are re-packed.
func (t *modelTable) accept(od core.OD) {
	t.x, t.y = t.positions(t.x, od.LHS), t.positions(t.y, od.RHS)
	x, y := t.x, t.y
	living := 0
	for w, alive := range t.alive {
		if alive == 0 {
			continue
		}
		ltx, eqx := t.fold(w, alive, x)
		lty, eqy := t.fold(w, alive, y)
		t.alive[w] = alive &^ ((ltx|eqx)&^(lty|eqy) | lty&^ltx)
		living += bits.OnesCount64(t.alive[w])
	}
	if (living+63)/64 <= len(t.alive)/repackShrink {
		t.repack(living)
	}
}

// repack moves the living patterns, in slot order, to the first slots of
// the table's other plane buffer — the shared planes are only read, and the
// buffer in use is read from — so that alive becomes its first living bits.
func (t *modelTable) repack(living int) {
	n, words := len(t.lt), (living+63)/64
	next := 1 - t.cur
	lt, eq, alive := t.own[next].cut(n, words)
	slot := 0
	for w, live := range t.alive {
		for ; live != 0; live &= live - 1 {
			from, to, at := uint(bits.TrailingZeros64(live)), slot>>6, uint(slot&63)
			for a := range n {
				lt[a][to] |= t.lt[a][w] >> from & 1 << at
				eq[a][to] |= t.eq[a][w] >> from & 1 << at
			}
			alive[to] |= 1 << at
			slot++
		}
	}
	t.lt, t.eq, t.alive, t.slots, t.cur = lt, eq, alive, living, next
}

// under returns, in dst, the models that order row 1 at or below row 2 on
// the list — everything a question with this left-hand side has to find
// ordered by its right-hand side. One context group folds it once and asks
// orders per candidate.
func (t *modelTable) under(dst []uint64, lhs []uint16) []uint64 {
	dst = sized(dst, len(t.alive))
	for w, alive := range t.alive {
		dst[w] = 0
		if alive != 0 {
			lt, eq := t.fold(w, alive, lhs)
			dst[w] = lt | eq
		}
	}
	return dst
}

// orders reports whether every pattern of the plane orders row 1 at or below
// row 2 on the list: with le = under(X), whether the accepted set implies
// X ↦ Y.
func (t *modelTable) orders(le []uint64, rhs []uint16) bool {
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

// implies reports whether the accepted set implies the OD. Like accept, it
// runs on the table's own scratch, so only the goroutine that writes the
// table may ask it.
func (t *modelTable) implies(od core.OD) bool {
	t.x, t.y = t.positions(t.x, od.LHS), t.positions(t.y, od.RHS)
	t.le = t.under(t.le, t.x)
	return t.orders(t.le, t.y)
}
