package prover

import (
	"math/bits"
	"slices"
	"sort"

	"odlib/internal/core"
)

// The compiled kernel. prover.New interns M's attributes to positions in the
// sorted universe and compiles every OD to position lists once; a decide then
// works on integers only — bitsets over positions for the split closure and
// the working universe, a position-indexed sign array for validating
// candidates against all of M, and per-round slot lists for the search.

// compiledOD is an OD with both sides resolved to indexes into a sign array:
// universe positions in Prover.cods (candidate validation under the Equal
// extension), search slots in decideState.cods (the enumeration).
type compiledOD struct {
	lhs, rhs []int32
}

// unassigned marks a search slot the enumeration has not reached yet. It is
// never Equal, so cmpSigns stops on it like on any deciding sign — which is
// exactly three-valued comparison: a list whose first non-Equal entry is
// unassigned could still compare either way.
const unassigned core.Sign = 2

// cmpSigns compares the two rows along idx: the first non-Equal sign decides.
func cmpSigns(signs []core.Sign, idx []int32) core.Sign {
	for _, i := range idx {
		if s := signs[i]; s != core.Equal {
			return s
		}
	}
	return core.Equal
}

// holds evaluates the OD on a fully assigned sign array (Theorem 15: it
// fails only by split or by swap).
func (c compiledOD) holds(signs []core.Sign) bool {
	cx := cmpSigns(signs, c.lhs)
	cy := cmpSigns(signs, c.rhs)
	if cx == core.Equal {
		return cy == core.Equal
	}
	return cy == core.Equal || cy == cx
}

// odStatus is an OD's truth value over a partially assigned sign array.
type odStatus int8

const (
	odOpen     odStatus = iota // some completion satisfies it, some other falsifies it — or unknown
	odHolds                    // every completion satisfies it
	odViolated                 // every completion falsifies it
)

// status evaluates the OD three-valued: a side is known once every entry
// before its first non-Equal one is assigned. A tie on Y holds whatever X
// does; two known sides decide like holds; anything else stays open.
func (c compiledOD) status(signs []core.Sign) odStatus {
	cy := cmpSigns(signs, c.rhs)
	if cy == core.Equal {
		return odHolds
	}
	cx := cmpSigns(signs, c.lhs)
	if cx == unassigned || cy == unassigned {
		return odOpen
	}
	if cx == cy {
		return odHolds
	}
	return odViolated // split (cx Equal) or swap (cx = -cy)
}

// compile interns m: the sorted universe, its position index, and every OD
// as position lists cut from one backing array.
func compile(m []core.OD) (universe core.List, index map[core.Attribute]int32, cods []compiledOD) {
	index = make(map[core.Attribute]int32)
	total := 0
	for _, od := range m {
		total += len(od.LHS) + len(od.RHS)
		for _, side := range [2]core.List{od.LHS, od.RHS} {
			for _, a := range side {
				if _, ok := index[a]; !ok {
					index[a] = 0
					universe = append(universe, a)
				}
			}
		}
	}
	sort.Slice(universe, func(i, j int) bool { return universe[i] < universe[j] })
	for i, a := range universe {
		index[a] = int32(i)
	}
	backing := make([]int32, 0, total)
	intern := func(l core.List) []int32 {
		start := len(backing)
		for _, a := range l {
			backing = append(backing, index[a])
		}
		return backing[start:len(backing):len(backing)]
	}
	cods = make([]compiledOD, len(m))
	for i, od := range m {
		cods[i] = compiledOD{lhs: intern(od.LHS), rhs: intern(od.RHS)}
	}
	return universe, index, cods
}

// Bitsets over attribute ids.
func bitHas(b []uint64, i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func bitSet(b []uint64, i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }

func bitsCover(b []uint64, idx []int32) bool {
	for _, i := range idx {
		if !bitHas(b, i) {
			return false
		}
	}
	return true
}

// Per-OD flags of one decide.
const (
	odApplied uint8 = 1 << iota // its FD already fired in the split closure
	odWorking                   // it is in the working set
)

// decideState is one decide's scratch. Attribute ids are universe positions,
// extended past len(universe) by the question's own attributes M never
// mentions (sorted, so id order is name order within each range). The
// id-indexed tables are allocated once per decide, the per-round lists are
// re-cut from one buffer each round, and the search itself allocates nothing.
type decideState struct {
	p      *Prover
	q      compiledOD // the question over ids
	extras core.List  // question attributes outside M's universe, sorted

	closure    []uint64    // ids functionally determined by the question's LHS
	inUniverse []uint64    // ids of the working universe
	flags      []uint8     // per OD of M: odApplied | odWorking
	working    []int32     // working set, as indexes into p.cods, in joining order
	gsigns     []core.Sign // a candidate under the Equal extension, by id
	slotOf     []int32     // id → search slot, valid for ids in inUniverse

	// Per round: the id behind each slot (the working universe in name
	// order), and the working ODs plus the question (last) compiled to slots.
	ids        []int32
	signs      []core.Sign // the round's candidate: the split table, or the sequential search's assignment
	cods       []compiledOD
	round      []int32 // backs the three lists below
	backing    []int32 // the cods' slot lists, back to back
	watchStart []int32 // watch[watchStart[k]:watchStart[k+1]] lists the cods mentioning slot k
	watch      []int32

	seq searchState // the caller's own enumeration, reset per round

	// The arrays the tables above are cut from, kept for the next decide
	// that draws this state from the prover's pool.
	ints     []int32
	sets     []uint64
	allSigns []core.Sign
}

// releaseDecideState returns d to the prover's pool once its decide is
// over. Nothing a decide returns aliases d: witness copies the signs out.
func (p *Prover) releaseDecideState(d *decideState) {
	d.seq = searchState{}
	p.states.Put(d)
}

// outside appends to out, sorted, the attributes of od that M never
// mentions.
func (p *Prover) outside(out core.List, od core.OD) core.List {
	for _, side := range [2]core.List{od.LHS, od.RHS} {
		for _, a := range side {
			if _, ok := p.index[a]; !ok && !out.Contains(a) {
				out = append(out, a)
			}
		}
	}
	if len(out) > 1 {
		slices.Sort(out)
	}
	return out
}

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// newDecideState interns the question, computes the split closure of its
// LHS under M's FDs (Lemma 1: set(X) → set(Y) per OD) and seeds the working
// universe with the question's own attributes. The state comes from the
// prover's pool, its tables re-cut from the arrays an earlier decide
// left, so a repeated question allocates nothing here; releaseDecideState
// hands it back.
func (p *Prover) newDecideState(od core.OD) *decideState {
	d, _ := p.states.Get().(*decideState)
	if d == nil {
		d = &decideState{p: p}
	}
	d.extras = p.outside(d.extras[:0], od)
	d.working = d.working[:0]
	u := len(p.universe)
	ids := u + len(d.extras)
	slots := max(0, min(ids, p.maxAttrs)) // a round past the guard is never laid out
	qlen := len(od.LHS) + len(od.RHS)

	d.ints = resize(d.ints, ids+slots+qlen)
	d.slotOf, d.ids = d.ints[:ids], d.ints[ids:ids:ids+slots]
	backing := d.ints[ids+slots : ids+slots]
	intern := func(l core.List) []int32 {
		start := len(backing)
		for _, a := range l {
			id, ok := p.index[a]
			if !ok {
				id = int32(u + d.extras.Index(a))
			}
			backing = append(backing, id)
		}
		return backing[start:len(backing):len(backing)]
	}
	d.q = compiledOD{lhs: intern(od.LHS), rhs: intern(od.RHS)}

	words := (ids + 63) / 64
	d.sets = resize(d.sets, 2*words)
	d.closure, d.inUniverse = d.sets[:words], d.sets[words:]
	d.flags = resize(d.flags, len(p.cods))
	d.allSigns = resize(d.allSigns, ids+slots)
	d.gsigns, d.signs = d.allSigns[:ids], d.allSigns[ids:ids:ids+slots]

	for _, id := range d.q.lhs {
		bitSet(d.closure, id)
		bitSet(d.inUniverse, id)
	}
	for _, id := range d.q.rhs {
		bitSet(d.inUniverse, id)
	}
	for changed := true; changed; {
		changed = false
		for i, c := range p.cods {
			if d.flags[i]&odApplied != 0 || !bitsCover(d.closure, c.lhs) {
				continue
			}
			d.flags[i] |= odApplied
			for _, id := range c.rhs {
				if !bitHas(d.closure, id) {
					bitSet(d.closure, id)
					changed = true
				}
			}
		}
	}
	return d
}

// layout assigns search slots to the working universe in name order — the
// search's attribute order — and returns its size; a universe past the
// attribute guard is only counted. Ids ascend in name order within M's
// universe and within the extras, so one merge of the two ranges sorts them.
func (d *decideState) layout() int {
	n := 0
	for _, word := range d.inUniverse {
		n += bits.OnesCount64(word)
	}
	if n > d.p.maxAttrs {
		return n
	}
	d.ids = d.ids[:0]
	place := func(id int32) {
		d.slotOf[id] = int32(len(d.ids))
		d.ids = append(d.ids, id)
	}
	u := int32(len(d.p.universe))
	e, end := u, u+int32(len(d.extras))
	for w, word := range d.inUniverse {
		for ; word != 0; word &= word - 1 {
			id := int32(w<<6 + bits.TrailingZeros64(word))
			if id >= u {
				break // the extras' own bits; the merge places them
			}
			for ; e < end && d.extras[e-u] < d.p.universe[id]; e++ {
				place(e)
			}
			place(id)
		}
	}
	for ; e < end; e++ {
		place(e)
	}
	d.signs = d.signs[:n]
	return n
}

// compileRound resolves the working ODs and the question (last) to slots
// and indexes them by the slots they mention, so the search re-evaluates
// after each assignment only what that assignment can have decided.
func (d *decideState) compileRound() {
	n := len(d.ids)
	mentions := len(d.q.lhs) + len(d.q.rhs)
	for _, i := range d.working {
		mentions += len(d.p.cods[i].lhs) + len(d.p.cods[i].rhs)
	}
	if need := 2*mentions + n + 2; cap(d.round) < need {
		d.round = make([]int32, 2*need) // room for the next widenings too
	}
	d.backing = d.round[:0:mentions]
	d.watch = d.round[mentions : 2*mentions]
	d.watchStart = d.round[2*mentions : 2*mentions+n+2]

	slots := func(ids []int32) []int32 {
		start := len(d.backing)
		for _, id := range ids {
			d.backing = append(d.backing, d.slotOf[id])
		}
		return d.backing[start:len(d.backing):len(d.backing)]
	}
	if cap(d.cods) <= len(d.working) {
		d.cods = make([]compiledOD, 0, 2*len(d.working)+2)
	}
	d.cods = d.cods[:0]
	for _, i := range d.working {
		c := d.p.cods[i]
		d.cods = append(d.cods, compiledOD{lhs: slots(c.lhs), rhs: slots(c.rhs)})
	}
	d.cods = append(d.cods, compiledOD{lhs: slots(d.q.lhs), rhs: slots(d.q.rhs)})

	// A cod is watched only from the slot on which it can first be decided:
	// while its RHS head is unassigned its status is open, and a working OD
	// (which cuts only by violation, never by holding) also needs its LHS
	// head. An attribute on both sides is watched once.
	question := len(d.cods) - 1
	eachWatch := func(visit func(slot int32, cod int)) {
		for j, c := range d.cods {
			var from int32
			if len(c.rhs) > 0 {
				from = c.rhs[0]
			}
			if j != question && len(c.lhs) > 0 {
				from = max(from, c.lhs[0])
			}
			for _, s := range c.lhs {
				if s >= from {
					visit(s, j)
				}
			}
			for _, s := range c.rhs {
				if s >= from && !slices.Contains(c.lhs, s) {
					visit(s, j)
				}
			}
		}
	}
	// Counting sort. Slot s is counted two places up, so that after the
	// prefix sums watchStart[s+1] is where its run begins, and after the
	// fill — which advances it — where the run ends, i.e. where slot s+1's
	// begins.
	clear(d.watchStart)
	eachWatch(func(s int32, _ int) { d.watchStart[s+2]++ })
	for k := 2; k < n+2; k++ {
		d.watchStart[k] += d.watchStart[k-1]
	}
	eachWatch(func(s int32, j int) {
		d.watch[d.watchStart[s+1]] = int32(j)
		d.watchStart[s+1]++
	})
}

// widen validates a candidate counterexample — signs by slot — against all
// of M under the Equal extension, and moves the first OD rejecting it into
// the working set, growing the working universe by that OD's attributes. It
// reports whether the working set grew; visited counts the ODs examined.
// Such an OD cannot already be in the working set: the candidate was
// constructed to satisfy every working OD.
func (d *decideState) widen(signs []core.Sign) (grew bool, visited uint64) {
	for slot, id := range d.ids {
		d.gsigns[id] = signs[slot]
	}
	reject := -1
	for i, c := range d.p.cods {
		visited++
		if d.flags[i]&odWorking == 0 && !c.holds(d.gsigns) {
			reject = i
			break
		}
	}
	for _, id := range d.ids {
		d.gsigns[id] = core.Equal
	}
	if reject < 0 {
		return false, visited
	}
	d.flags[reject] |= odWorking
	d.working = append(d.working, int32(reject))
	c := d.p.cods[reject]
	for _, side := range [2][]int32{c.lhs, c.rhs} {
		for _, id := range side {
			bitSet(d.inUniverse, id)
		}
	}
	return true, visited
}

// witness freezes a validated candidate as a pattern over the working
// universe — the compact form verdicts are stored in: every attribute it
// omits ties.
func (d *decideState) witness(signs []core.Sign) *core.Pattern {
	attrs := make(core.List, len(d.ids))
	u := int32(len(d.p.universe))
	for slot, id := range d.ids {
		if id >= u {
			attrs[slot] = d.extras[id-u]
		} else {
			attrs[slot] = d.p.universe[id]
		}
	}
	w := core.MustPattern(attrs)
	copy(w.Signs(), signs)
	return w
}
